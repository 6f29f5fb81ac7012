import functools

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from greedyreg import bench
from greedyreg.baselines import (
    DenseModel,
    FactorizationFailure,
    LassoPath,
    _soft_threshold_vec,
    fit_fista,
    fit_ridge,
    lipschitz_estimate,
)
from greedyreg.core import CONVERGED, FIXED_K, MAX_ITER, DesignMatrix
from greedyreg.data import gen_sinc
from greedyreg.dictionary import build_rbf_uniform, evaluate_design, normalize_columns
from greedyreg.linalg import cholesky_solve, empirical_norm


def _design(columns):
    return DesignMatrix.from_columns(np.asarray(columns, dtype=float))


def _random_design(rng, m, n):
    return _design(rng.standard_normal((m, n)))


from oracles import coordinate_descent_lasso, fista_reference, lasso_objective


def _count_builds(monkeypatch, name):
    """The design of every build of the cached ``DesignMatrix.<name>``, in build order."""
    builds = []
    build = getattr(DesignMatrix, name).func

    def counted(dm):
        builds.append(dm)
        return build(dm)

    cached = functools.cached_property(counted)
    cached.__set_name__(DesignMatrix, name)
    monkeypatch.setattr(DesignMatrix, name, cached)
    return builds


def _small_sweep(methods, lambda_grid=(1e-3, 1e-1)):
    """Two (sigma, seed) cells of a small sinc sweep."""
    return bench.sweep(
        bench.ExperimentConfig(
            methods=[bench.parse_method(m) for m in methods], seeds=[0, 1], m_train=60,
            m_test=30, n=20, sigmas=[0.1], k_grid=[0, 3], delta_grid=[1e-2],
            lambda_grid=list(lambda_grid),
        )
    )


class TestSoftThreshold:
    def test_shrinks_positive(self):
        assert _soft_threshold_vec(np.array([3.0]), 1.0).tolist() == [2.0]

    def test_zeroes_small(self):
        assert _soft_threshold_vec(np.array([-0.5, 0.5, 1.0]), 1.0).tolist() == [0.0, 0.0, 0.0]

    def test_shrinks_negative(self):
        assert _soft_threshold_vec(np.array([-3.0]), 1.0).tolist() == [-2.0]


class TestRidge:
    def test_huge_lambda_kills_coefficients(self):
        rng = np.random.default_rng(0)
        dm = _random_design(rng, 10, 4)
        model = fit_ridge(dm, rng.standard_normal(10), 1e12)
        assert np.max(np.abs(model.coefficients)) < 1e-10

    def test_identity_design_closed_form(self):
        m = 5
        y = np.arange(1.0, m + 1)
        lam = 0.3
        dm = _design(np.eye(m))
        model = fit_ridge(dm, y, lam)
        np.testing.assert_allclose(model.coefficients, y / (1.0 + lam * m), atol=1e-12)

    def test_normal_equations_residual(self):
        rng = np.random.default_rng(1)
        dm = _random_design(rng, 10, 4)
        y = rng.standard_normal(10)
        lam = 0.05
        model = fit_ridge(dm, y, lam)
        g = dm.columns
        lhs = (g.T @ g / dm.m + lam * np.eye(4)) @ model.coefficients
        rhs = g.T @ y / dm.m
        assert np.max(np.abs(lhs - rhs)) < 1e-8

    def test_gradient_optimality(self):
        rng = np.random.default_rng(2)
        for seed in range(10):
            r = np.random.default_rng(seed)
            dm = _random_design(r, 15, 6)
            y = r.standard_normal(15)
            lam = float(r.uniform(1e-4, 1.0))
            model = fit_ridge(dm, y, lam)
            g = dm.columns
            grad = -2.0 * g.T @ (y - g @ model.coefficients) / dm.m
            grad += 2.0 * lam * model.coefficients
            assert np.linalg.norm(grad) < 1e-6 * (1.0 + empirical_norm(y))

    def test_rejects_nonpositive_lambda(self):
        dm = _design(np.eye(3))
        with pytest.raises(ValueError):
            fit_ridge(dm, np.ones(3), 0.0)

    @pytest.mark.parametrize("lam", [np.inf, np.nan])
    def test_rejects_nonfinite_lambda(self, lam):
        dm = _design(np.eye(3))
        with pytest.raises(ValueError):
            fit_ridge(dm, np.ones(3), lam)

    def test_rejects_a_design_with_no_live_column(self):
        # columns too small to normalize: every coefficient would be 0/0 in raw units
        dm = _design(np.full((3, 2), 1e-300))
        with pytest.raises(ValueError, match="no live columns"):
            fit_ridge(dm, np.ones(3), 1e-3)

    def test_singular_gram_raises_factorization_failure(self):
        # duplicate columns: lam = 1e-300 vanishes beside the Gram's entries
        dm = _design(np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]))
        with pytest.raises(FactorizationFailure):
            fit_ridge(dm, np.ones(3), 1e-300)

    def test_cached_gram_leaves_coefficients_bit_identical(self):
        for seed in range(10):
            r = np.random.default_rng(seed + 40)
            dm = _random_design(r, 30, 12)
            y = r.standard_normal(30)
            lam = float(r.uniform(1e-6, 1.0))
            g = dm.columns
            inline = (g.T @ g) / dm.m
            inline[np.diag_indices_from(inline)] += lam
            rhs = (g.T @ y) / dm.m
            model = fit_ridge(dm, y, lam)
            assert np.array_equal(model.coefficients, cholesky_solve(inline, rhs))
            assert model.termination == FIXED_K and model.rel_gap is None
            # scipy's Cholesky solve as an oracle: its largest relative gap
            # over these ten systems is 2.6e-15
            np.testing.assert_allclose(
                model.coefficients, cho_solve(cho_factor(inline), rhs), rtol=1e-14
            )

    def test_dense_sparsity_counts_all(self):
        rng = np.random.default_rng(3)
        dm = _random_design(rng, 12, 5)
        model = fit_ridge(dm, rng.standard_normal(12), 1e-3)
        assert model.sparsity() == 5


class TestLipschitz:
    def test_orthonormal_columns(self):
        q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((20, 6)))
        dm = _design(q * np.sqrt(20))
        assert lipschitz_estimate(dm) == pytest.approx(1.01, rel=1e-4)

    def test_single_column_norm_two(self):
        dm = _design(np.full((8, 1), 2.0))
        assert lipschitz_estimate(dm) == pytest.approx(4.0 * 1.01, rel=1e-4)

    def test_matches_dense_eigensolve(self):
        rng = np.random.default_rng(5)
        dm = _random_design(rng, 10, 3)
        top = np.linalg.eigvalsh(dm.columns.T @ dm.columns / dm.m).max()
        assert lipschitz_estimate(dm) / 1.01 == pytest.approx(top, rel=1e-4)

    def test_power_iteration_runs_once_per_cell(self, monkeypatch):
        builds = _count_builds(monkeypatch, "lipschitz")
        _small_sweep(["fista"], lambda_grid=[1e-3, 1e-2, 1e-1])
        assert len(builds) == 2
        assert builds[0] is not builds[1]


class TestFista:
    def test_null_threshold_gives_zero(self):
        rng = np.random.default_rng(6)
        dm = _random_design(rng, 12, 5)
        y = rng.standard_normal(12)
        lam = float(np.max(np.abs(dm.columns.T @ y / dm.m))) * 1.0001
        model = fit_fista(dm, y, lam)
        np.testing.assert_array_equal(model.coefficients, 0.0)

    def test_orthonormal_closed_form(self):
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.standard_normal((16, 5)))
        cols = q * np.sqrt(16)
        dm = _design(cols)
        y = rng.standard_normal(16)
        lam = 0.1
        model = fit_fista(dm, y, lam, max_iter=5000, tol=1e-12)
        inner = cols.T @ y / 16
        expected = np.sign(inner) * np.maximum(np.abs(inner) - lam, 0.0)
        np.testing.assert_allclose(model.coefficients, expected, atol=1e-8)
        assert model.termination == CONVERGED
        assert fit_fista(dm, y, lam).termination == CONVERGED

    def test_objective_matches_coordinate_descent_oracle(self):
        rng = np.random.default_rng(8)
        for trial in range(20):
            r = np.random.default_rng(trial)
            dm = _random_design(r, 20, 8)
            y = r.standard_normal(20)
            lam = float(r.uniform(0.01, 0.3))
            model = fit_fista(dm, y, lam, max_iter=20000, tol=1e-14)
            oracle = coordinate_descent_lasso(dm.columns, y, lam)
            ours = lasso_objective(dm, y, model.coefficients, lam)
            best = lasso_objective(dm, y, oracle, lam)
            assert abs(ours - best) <= 1e-6

    def test_objective_nonincreasing(self):
        # the solver is deterministic, so truncating the budget at k
        # recovers the k-th accepted iterate; its objective never rises
        rng = np.random.default_rng(9)
        dm = _random_design(rng, 25, 10)
        y = rng.standard_normal(25)
        lam = 0.05
        objectives = [lasso_objective(dm, y, np.zeros(10), lam)]
        for k in range(1, 40):
            model = fit_fista(dm, y, lam, max_iter=k, tol=0.0)
            objectives.append(lasso_objective(dm, y, model.coefficients, lam))
        assert np.all(np.diff(objectives) <= 1e-10)

    def test_loop_matches_reference_bit_for_bit(self):
        # random designs, and a sinc RBF design whose fits end at max_iter
        cases = []
        for trial in range(40):
            r = np.random.default_rng(trial + 300)
            m, n = int(r.integers(10, 60)), int(r.integers(3, 40))
            lam, tol = float(10.0 ** r.uniform(-4, -0.5)), float(10.0 ** r.uniform(-12, -3))
            cases.append((_random_design(r, m, n), r.standard_normal(m), lam, 400, tol))
        rng = np.random.default_rng(1)
        train, _ = gen_sinc(200, 10, 0.5, rng)
        spec = build_rbf_uniform(60, -np.pi, np.pi, 1.0, rng)
        dm = normalize_columns(evaluate_design(spec, train.inputs))
        cases += [(dm, train.targets, lam, 1500, 1e-6) for lam in (1e-5, 1e-2)]
        terminations = set()
        for dm, y, lam, max_iter, tol in cases:
            model = fit_fista(dm, y, lam, max_iter=max_iter, tol=tol)
            b, yy = dm.columns.T @ y / dm.m, float(y @ y) / dm.m
            x, used, converged, gap = fista_reference(
                dm.gram, b, yy, dm.lipschitz, lam, max_iter, tol
            )
            assert np.array_equal(model.coefficients, x)
            assert model.iterations_used == used and model.rel_gap == gap
            assert model.termination == (CONVERGED if converged else MAX_ITER)
            terminations.add(model.termination)
        assert terminations == {CONVERGED, MAX_ITER}

    def test_reports_budget_exhaustion(self):
        rng = np.random.default_rng(10)
        dm = _random_design(rng, 15, 6)
        y = rng.standard_normal(15)
        model = fit_fista(dm, y, 1e-6, max_iter=3, tol=0.0)
        assert model.iterations_used == 3
        assert model.termination == MAX_ITER

    def test_gap_matches_column_form(self):
        # budgets from 1 to 300 iterations leave gaps across many decades
        for trial in range(20):
            r = np.random.default_rng(trial + 100)
            m, n = int(r.integers(10, 40)), int(r.integers(3, 30))
            dm = _random_design(r, m, n)
            y = r.standard_normal(m)
            lam = float(r.uniform(1e-3, 0.3))
            model = fit_fista(dm, y, lam, max_iter=int(r.integers(1, 300)), tol=0.0)
            expected = _column_form_gap(dm.columns, y, model.coefficients, lam)
            assert abs(model.rel_gap - expected) <= 1e-9

    def test_converged_fits_are_certified(self):
        converged = 0
        for trial in range(20):
            r = np.random.default_rng(trial + 200)
            m, n = int(r.integers(10, 60)), int(r.integers(3, 40))
            dm = _random_design(r, m, n)
            y = r.standard_normal(m)
            lam = float(10 ** r.uniform(-4, -0.5))
            model = fit_fista(dm, y, lam)
            if model.termination == CONVERGED:
                converged += 1
                assert model.rel_gap <= 1e-6
                assert _column_form_gap(dm.columns, y, model.coefficients, lam) <= 1e-6
            else:
                assert model.termination == MAX_ITER and model.iterations_used == 10000
        assert converged >= 15

    def test_rejects_bad_args(self):
        dm = _design(np.eye(3))
        with pytest.raises(ValueError):
            fit_fista(dm, np.ones(3), -1.0)
        for lam in (np.inf, np.nan):
            with pytest.raises(ValueError):
                fit_fista(dm, np.ones(3), lam)
        with pytest.raises(ValueError):
            fit_fista(dm, np.ones(3), 0.1, max_iter=0)


def _reference_fit(dm, y, lam, max_iter, tol):
    b, yy = dm.columns.T @ y / dm.m, float(y @ y) / dm.m
    return fista_reference(dm.gram, b, yy, dm.lipschitz, lam, max_iter, tol)


def _sinc_case():
    """A sinc RBF design whose small-lambda fits end at max_iter."""
    rng = np.random.default_rng(1)
    train, _ = gen_sinc(200, 10, 0.5, rng)
    spec = build_rbf_uniform(60, -np.pi, np.pi, 1.0, rng)
    return normalize_columns(evaluate_design(spec, train.inputs)), train.targets


def _same_fit(a, b):
    return (
        np.array_equal(a.coefficients, b.coefficients)
        and (a.iterations_used, a.termination, a.rel_gap)
        == (b.iterations_used, b.termination, b.rel_gap)
    )


class TestLassoPath:
    def test_rows_match_reference_bit_for_bit(self):
        # unsorted grids with a repeated lambda; rows stop at different iterations
        cases = []
        for trial in range(40):
            r = np.random.default_rng(trial + 300)
            m, n = int(r.integers(10, 60)), int(r.integers(3, 40))
            dm, y = _random_design(r, m, n), r.standard_normal(m)
            lams = [float(lam) for lam in 10.0 ** r.uniform(-4, -0.5, size=4)]
            tol = float(10.0 ** r.uniform(-12, -3))
            cases.append((dm, y, lams + lams[1:2], 400, tol))
        dm, y = _sinc_case()
        cases.append((dm, y, [1e-2, 1e-5, 10.0, 1e-5, 0.3], 1500, 1e-6))
        mixed = 0
        for dm, y, lams, max_iter, tol in cases:
            path = LassoPath(dm, y, lams, max_iter, tol)
            terminations = set()
            for lam in lams:
                model = fit_fista(dm, y, lam, max_iter, tol, path=path)
                x, used, converged, gap = _reference_fit(dm, y, lam, max_iter, tol)
                assert np.array_equal(model.coefficients, x)
                assert model.iterations_used == used and model.rel_gap == gap
                assert model.termination == (CONVERGED if converged else MAX_ITER)
                terminations.add(model.termination)
            mixed += terminations == {CONVERGED, MAX_ITER}
        assert mixed >= 5

    def test_lone_fit_equals_its_row_of_a_30_lambda_path(self):
        dm, y = _sinc_case()
        lams = list(np.geomspace(*bench.DEFAULT_LAMBDA_GRID))
        path = LassoPath(dm, y, lams, max_iter=1500)
        rows = [fit_fista(dm, y, lam, 1500, path=path) for lam in lams]
        assert {row.termination for row in rows} == {CONVERGED, MAX_ITER}
        for lam, row in zip(lams, rows):
            assert _same_fit(fit_fista(dm, y, lam, 1500), row)

    def test_first_model_solves_the_grid(self, monkeypatch):
        solves = []
        real_solve = LassoPath._solve
        monkeypatch.setattr(LassoPath, "_solve", lambda path: solves.append(1) or real_solve(path))
        rng = np.random.default_rng(12)
        dm, y = _random_design(rng, 20, 6), rng.standard_normal(20)
        path = LassoPath(dm, y, [0.1, 0.01, 0.1])
        assert solves == []
        models = [path.model(lam) for lam in (0.01, 0.1, 0.1)]
        assert solves == [1]
        # every model owns its coefficients
        models[1].coefficients[:] = 7.0
        assert _same_fit(models[2], fit_fista(dm, y, 0.1))

    def test_rejects_another_budget_design_target_or_lambda(self):
        rng = np.random.default_rng(13)
        dm, y = _random_design(rng, 20, 6), rng.standard_normal(20)
        path = LassoPath(dm, y, [0.1])
        for kwargs in ({"max_iter": 5}, {"tol": 1e-3}):
            with pytest.raises(ValueError, match="LassoPath runs"):
                fit_fista(dm, y, 0.1, path=path, **kwargs)
        with pytest.raises(ValueError, match="another design or target"):
            fit_fista(_random_design(rng, 20, 6), y, 0.1, path=path)
        with pytest.raises(ValueError, match="another design or target"):
            fit_fista(dm, y + 1.0, 0.1, path=path)
        with pytest.raises(ValueError, match="not on the path"):
            fit_fista(dm, y, 0.2, path=path)
        assert _same_fit(fit_fista(dm, y, 0.1, path=path), fit_fista(dm, y, 0.1))

    def test_rejects_bad_grid_or_budget(self):
        dm = _design(np.eye(3))
        for lams in ([0.1, -1.0], [np.nan], [np.inf]):
            with pytest.raises(ValueError):
                LassoPath(dm, np.ones(3), lams)
        with pytest.raises(ValueError):
            LassoPath(dm, np.ones(3), [0.1], max_iter=0)

    def test_a_nonfinite_row_fails_alone(self, monkeypatch):
        real_solve = LassoPath._solve

        def corrupting(path):
            fits = real_solve(path)
            coefficients, *rest = fits[0.01]
            fits[0.01] = (np.full_like(coefficients, np.nan), *rest)
            return fits

        monkeypatch.setattr(LassoPath, "_solve", corrupting)
        rng = np.random.default_rng(14)
        dm, y = _random_design(rng, 20, 6), rng.standard_normal(20)
        path = LassoPath(dm, y, [0.1, 0.01])
        with pytest.raises(ValueError, match="finite"):
            path.model(0.01)
        assert np.isfinite(path.model(0.1).coefficients).all()


@pytest.mark.parametrize(
    "target", [np.zeros(8), np.full(8, 1e300), np.full(8, np.nan)], ids=["zero", "1e300", "nan"]
)
def test_dense_fits_reject_a_target_without_finite_positive_norm(target, monkeypatch):
    builds = _count_builds(monkeypatch, "gram")
    dm = _random_design(np.random.default_rng(15), 8, 3)
    for fit in (fit_ridge, fit_fista, lambda dm, y, lam: LassoPath(dm, y, [lam])):
        with pytest.raises(ValueError, match="target norm must be finite and positive"):
            fit(dm, target, 0.1)
    assert builds == []  # rejected before any product with the design


def _column_form_gap(columns, y, coef, lam):
    """Relative lasso duality gap from the m x n columns, dual point by residual rescaling."""
    m = columns.shape[0]
    resid = y - columns @ coef
    primal = 0.5 * float(resid @ resid) + m * lam * float(np.abs(coef).sum())
    top = float(np.abs(columns.T @ resid).max())
    theta = resid * min(1.0, m * lam / top) if top > 0 else resid
    dual = 0.5 * float(y @ y) - 0.5 * float((y - theta) @ (y - theta))
    return (primal - dual) / primal


class TestGramCache:
    @pytest.fixture
    def gram_builds(self, monkeypatch):
        return _count_builds(monkeypatch, "gram")

    def test_greedy_sweep_never_builds_it(self, gram_builds):
        _small_sweep(["ogl:max", "togl:max", "dtogl:first", "pgl"])
        assert gram_builds == []

    def test_dense_sweep_builds_it_once_per_cell(self, gram_builds):
        _small_sweep(["ridge", "fista"])
        assert len(gram_builds) == 2
        assert gram_builds[0] is not gram_builds[1]

    def test_read_only(self):
        dm = _random_design(np.random.default_rng(11), 8, 3)
        assert dm.gram is dm.gram
        np.testing.assert_allclose(dm.gram, dm.columns.T @ dm.columns / 8, atol=1e-15)
        with pytest.raises(ValueError):
            dm.gram[0, 0] = 1.0


def test_dense_model_rejects_nonfinite():
    with pytest.raises(ValueError):
        DenseModel(np.array([np.nan]), 0.1)


def test_sparsity_contrast_on_sinc_benchmark():
    """Regularized dense fits keep (nearly) every atom; the adaptive
    greedy fit uses an order of magnitude fewer."""
    from greedyreg.algorithms import fit_delta_togl
    from greedyreg.data import gen_sinc
    from greedyreg.dictionary import build_rbf_uniform, evaluate_design, normalize_columns

    rng = np.random.default_rng(42)
    train, _ = gen_sinc(300, 10, 0.1, rng)
    spec = build_rbf_uniform(120, -np.pi, np.pi, 1.0, np.random.default_rng(43))
    dm = normalize_columns(evaluate_design(spec, train.inputs))
    y = train.targets

    ridge_sp = fit_ridge(dm, y, 1e-3).sparsity()
    fista_sp = fit_fista(dm, y, 1e-5, max_iter=3000).sparsity()
    greedy_sp = fit_delta_togl(dm, y, 1e-3, "max").k_fitted

    assert ridge_sp == dm.n
    assert fista_sp > dm.n // 2
    assert ridge_sp > 5 * greedy_sp
    assert fista_sp > 5 * greedy_sp
