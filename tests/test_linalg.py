import copy

import numpy as np
import pytest

import greedyreg as gr
from greedyreg.algorithms import fit_ogl
from greedyreg.core import LengthMismatch
from greedyreg.greedy import Criterion
from greedyreg.linalg import (
    DEGENERATE_TOL,
    SCREEN_RTOL,
    DegenerateColumn,
    NonPositiveBound,
    ProjectionState,
    check_target,
    clearly_degenerate,
    empirical_inner,
    empirical_norm,
    orthogonal_norms,
    project_append,
    replay_append,
    rmse,
    solve_coefficients,
    truncate_values,
)
from oracles import forward_error, long_double_back_substitution


class TestEmpiricalInner:
    def test_constants(self):
        assert empirical_inner([1.0, 1.0], [1.0, 1.0]) == pytest.approx(1.0)

    def test_symmetry_cancels(self):
        assert empirical_inner([1.0, -1.0], [1.0, 1.0]) == pytest.approx(0.0)

    def test_hand_sum(self):
        # (1*4 + 2*5 + 3*6) / 3 = 32/3
        assert empirical_inner([1, 2, 3], [4, 5, 6]) == pytest.approx(32.0 / 3.0)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            empirical_inner([1.0], [1.0, 2.0])


class TestEmpiricalNorm:
    def test_zero(self):
        assert empirical_norm([0.0, 0.0, 0.0]) == 0.0

    def test_hand_value(self):
        assert empirical_norm([3.0, 4.0]) == pytest.approx(np.sqrt(12.5))

    def test_constants(self):
        for c in (-2.5, 0.75):
            assert empirical_norm([c] * 7) == pytest.approx(abs(c))

    def test_bits_of_the_mean_form(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            v = rng.standard_normal(int(rng.integers(1, 3000))) * rng.uniform(1e-3, 1e3)
            assert empirical_norm(v) == float(np.sqrt(np.mean(v**2)))

    def test_matches_inner(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(11)
        assert empirical_norm(v) == pytest.approx(np.sqrt(empirical_inner(v, v)))


class TestCheckTarget:
    def test_returns_the_norm(self):
        assert check_target([3.0, 4.0]) == empirical_norm([3.0, 4.0])

    @pytest.mark.parametrize("value", [0.0, 1e300, np.inf, np.nan])
    def test_rejects_a_norm_not_finite_and_positive(self, value, recwarn):
        with pytest.raises(ValueError, match="target norm must be finite and positive"):
            check_target([value, value])
        assert len(recwarn) == 0  # the overflow is reported by the error alone


class TestTruncate:
    def test_inside_band(self):
        assert truncate_values([0.5, -0.25], 1.0).tolist() == [0.5, -0.25]

    def test_clamps_to_signed_bound(self):
        assert truncate_values([-3.0, 3.0], 1.0).tolist() == [-1.0, 1.0]

    def test_boundary(self):
        assert truncate_values([1.0, -1.0], 1.0).tolist() == [1.0, -1.0]

    def test_nonpositive_bound(self):
        with pytest.raises(NonPositiveBound):
            truncate_values([0.5], 0.0)
        with pytest.raises(NonPositiveBound):
            truncate_values([0.5], -1.0)

    def test_per_sample_error_never_grows(self):
        # clamping toward any target inside [-M, M] cannot increase error
        rng = np.random.default_rng(1)
        bound = 1.0
        preds = rng.uniform(-4, 4, size=200)
        targets = rng.uniform(-bound, bound, size=200)
        clipped = truncate_values(preds, bound)
        assert np.all(np.abs(clipped - targets) <= np.abs(preds - targets) + 1e-15)
        assert rmse(clipped, targets) <= rmse(preds, targets) + 1e-15


class TestRmse:
    def test_identical(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unit_offset(self):
        assert rmse([0.0, 0.0], [1.0, 1.0]) == pytest.approx(1.0)

    def test_hand_value(self):
        # sqrt((1 + 4) / 2)
        assert rmse([1.0, 2.0], [2.0, 4.0]) == pytest.approx(np.sqrt(2.5))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            rmse([1.0], [1.0, 2.0])


class TestProjectAppend:
    def test_column_equals_target(self):
        y = np.array([2.0, -1.0, 0.5])
        state = ProjectionState(y)
        project_append(state, y.copy())
        assert state.residual_norm == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_column_leaves_residual(self):
        y = np.array([1.0, -1.0])
        state = ProjectionState(y)
        project_append(state, np.array([1.0, 1.0]))
        np.testing.assert_allclose(state.residual, y, atol=1e-12)
        assert state.residual_norm == pytest.approx(empirical_norm(y))

    def test_two_columns_span_the_plane(self):
        y = np.array([2.0, 3.0])
        state = ProjectionState(y)
        project_append(state, np.array([1.0, 0.0]))
        project_append(state, np.array([1.0, 1.0]))
        assert state.residual_norm == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_column_rejected_and_state_intact(self):
        y = np.array([1.0, 2.0, 3.0])
        col = np.array([1.0, 1.0, 0.0])
        state = ProjectionState(y)
        project_append(state, col)
        k_before, res_before = state.k, state.residual_norm
        with pytest.raises(DegenerateColumn):
            project_append(state, 2.0 * col)
        assert state.k == k_before
        assert state.residual_norm == res_before


def _orthonormal(m, k, seed):
    """k columns of empirical norm 1, mutually orthogonal under the empirical inner product."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((m, k)))
    return q * np.sqrt(m)


class TestBatchedScreen:
    def test_norms_match_project_append(self):
        rng = np.random.default_rng(11)
        g = rng.standard_normal((50, 12))
        state = ProjectionState(rng.standard_normal(50))
        for j in range(6):
            project_append(state, g[:, j])
        # inside the span, near it, and independent of it
        columns = np.column_stack([g[:, :6] @ rng.standard_normal((6, 4)), g[:, 6:]])
        columns[:, 1] += 1e-9 * g[:, 7]
        batched = orthogonal_norms(state, columns)
        for j in range(columns.shape[1]):
            alone = copy.deepcopy(state)
            try:
                project_append(alone, columns[:, j])
            except DegenerateColumn:
                assert batched[j] < DEGENERATE_TOL
                continue
            # project_append leaves the column's orthogonal norm on the factor's diagonal
            assert abs(batched[j] - alone._r[6, 6]) <= 1e-14 * empirical_norm(columns[:, j])

    def test_flags_only_columns_clearly_inside_the_span(self):
        u = _orthonormal(40, 6, 12)
        state = ProjectionState(3.0 * u[:, 0] + 2.0 * u[:, 1] + u[:, 2])
        project_append(state, u[:, 0])
        project_append(state, 5.0 * u[:, 1])
        # orthogonal norms 0, 0.3, 0.7 and 1.3 times the tolerance, and 1
        off = np.array([0.0, 0.3, 0.7, 1.3, 1e10]) * DEGENERATE_TOL
        columns = 2.0 * u[:, [0]] - u[:, [1]] + u[:, [4]] * off
        assert clearly_degenerate(state, columns).tolist() == [True, True, False, False, False]
        for j, degenerate in enumerate([True, True, True, False, False]):
            alone = copy.deepcopy(state)
            if degenerate:
                with pytest.raises(DegenerateColumn):
                    project_append(alone, columns[:, j])
            else:
                project_append(alone, columns[:, j])

    def test_margin_scales_with_the_column(self):
        # columns along the basis: each lies inside the span, but past a
        # length of tol / (2 * SCREEN_RTOL) the margin exceeds tol/2, so
        # the screen leaves the column to project_append
        u = _orthonormal(30, 3, 13)
        state = ProjectionState(u[:, 2])
        project_append(state, u[:, 0])
        lengths = np.array([1.0, 0.2, 2.0]) * DEGENERATE_TOL / (2 * SCREEN_RTOL)
        columns = u[:, [0]] * lengths
        assert clearly_degenerate(state, columns).tolist() == [False, True, False]
        with pytest.raises(DegenerateColumn):
            project_append(state, columns[:, 2])

    def test_empty_basis_and_shape_check(self):
        state = ProjectionState(np.ones(4))
        columns = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]])
        np.testing.assert_allclose(orthogonal_norms(state, columns), [1.0, 0.0])
        with pytest.raises(LengthMismatch):
            orthogonal_norms(state, np.ones(4))


class TestReplayAppend:
    def test_replay_reproduces_appends_bit_for_bit(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((30, 20))
        y = rng.standard_normal(30)
        state, replayed = ProjectionState(y), ProjectionState(y)
        for j in range(20):  # past two buffer growths
            project_append(state, g[:, j])
            replay_append(replayed, state.last_append())
            assert replayed.k == state.k
            assert replayed.residual_norm == state.residual_norm
            assert np.array_equal(replayed.residual, state.residual)
            assert np.array_equal(solve_coefficients(replayed)[0], solve_coefficients(state)[0])
        np.testing.assert_array_equal(replayed.y, y)


class TestSolveCoefficients:
    def test_exact_multiple(self):
        g = np.array([0.3, -0.7, 1.1])
        state = ProjectionState(2.0 * g)
        project_append(state, g)
        np.testing.assert_allclose(solve_coefficients(state)[0], [2.0], atol=1e-12)

    def test_canonical_basis(self):
        y = np.array([3.0, 4.0])
        state = ProjectionState(y)
        project_append(state, np.array([1.0, 0.0]))
        project_append(state, np.array([0.0, 1.0]))
        np.testing.assert_allclose(solve_coefficients(state)[0], [3.0, 4.0], atol=1e-12)

    def test_empty_state_rejected(self):
        state = ProjectionState(np.ones(3))
        with pytest.raises(ValueError):
            solve_coefficients(state)

    def test_prefix_matches_truncated_state(self):
        rng = np.random.default_rng(8)
        g = rng.standard_normal((20, 12))
        y = rng.standard_normal(20)
        state = ProjectionState(y)
        for j in range(12):
            project_append(state, g[:, j])
        for k in range(1, 13):
            prefix_state = ProjectionState(y)
            for j in range(k):
                project_append(prefix_state, g[:, j])
            assert np.array_equal(
                solve_coefficients(state, [k])[0], solve_coefficients(prefix_state)[0]
            )

    @pytest.mark.parametrize("k", [0, 3])
    def test_prefix_out_of_range_rejected(self, k):
        state = ProjectionState(np.ones(3))
        project_append(state, np.array([1.0, 0.0, 0.0]))
        project_append(state, np.array([0.0, 1.0, 0.0]))
        with pytest.raises(ValueError):
            solve_coefficients(state, [k])

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(7)
        g = rng.standard_normal((5, 3))
        y = rng.standard_normal(5)
        state = ProjectionState(y)
        for j in range(3):
            project_append(state, g[:, j])
        (coef,) = solve_coefficients(state)
        oracle = np.linalg.solve(g.T @ g, g.T @ y)
        np.testing.assert_allclose(coef, oracle, atol=1e-8)


class TestBatchedSolve:
    def test_batched_prefixes_match_single_prefix_solves(self):
        rng = np.random.default_rng(9)
        g = rng.standard_normal((40, 25))
        y = rng.standard_normal(40)
        state = ProjectionState(y)
        for j in range(25):
            project_append(state, g[:, j])
        ks = [1, 3, 3, 9, 17, 24, 25]
        for k, coefs in zip(ks, solve_coefficients(state, ks)):
            assert coefs.shape == (k,)
            assert np.array_equal(coefs, solve_coefficients(state, [k])[0])
        assert np.array_equal(solve_coefficients(state)[0], solve_coefficients(state, [25])[0])

    @pytest.mark.parametrize("ks", [[], [2, 1]])
    def test_empty_or_decreasing_prefix_list_rejected(self, ks):
        state = ProjectionState(np.ones(3))
        project_append(state, np.array([1.0, 0.0, 0.0]))
        project_append(state, np.array([0.0, 1.0, 0.0]))
        with pytest.raises(ValueError):
            solve_coefficients(state, ks)


class TestSolveAccuracy:
    # Four unit roundoffs: at most one rounding of a long-double solution, with room.
    BOUND = 2.0**-51

    @staticmethod
    def _rank_deficient_trace():
        """ogl:rand run past numerical rank on a uniform RBF design (rank about 25)."""
        train, _ = gr.gen_sinc(200, 10, sigma=0.1, rng=np.random.default_rng(0))
        spec = gr.build_rbf_uniform(60, -np.pi, np.pi, eta=1.0, rng=np.random.default_rng(100))
        dm = gr.normalize_columns(gr.evaluate_design(spec, train.inputs))
        trace = fit_ogl(dm, train.targets, Criterion("rand"), 60, rng=np.random.default_rng(200))
        assert trace.k_fitted > 25
        state = trace.state
        r = state._r[: state.k, : state.k]
        assert np.linalg.cond(r) > 1e12
        return state

    @staticmethod
    def _errors(state, coefficient_vectors):
        errors = []
        for k, coefs in enumerate(coefficient_vectors, 1):
            z = (state._q[:, :k].T @ state.y) / state.m
            errors.append(forward_error(coefs, long_double_back_substitution(state._r[:k, :k], z)))
        return errors

    def test_ill_conditioned_factor_within_one_rounding(self):
        state = self._rank_deficient_trace()
        ks = range(1, state.k + 1)
        assert max(self._errors(state, solve_coefficients(state, ks))) <= self.BOUND

    def test_bound_is_missed_by_a_float64_solve(self):
        solve_triangular = pytest.importorskip("scipy.linalg").solve_triangular
        state = self._rank_deficient_trace()
        solved = [
            solve_triangular(state._r[:k, :k], (state._q[:, :k].T @ state.y) / state.m)
            for k in range(1, state.k + 1)
        ]
        assert max(self._errors(state, solved)) > self.BOUND


class TestProjectionInvariants:
    """Seeded random instances exercising the stated numerical bounds."""

    def _run_instance(self, seed, m, n_cols):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((m, n_cols))
        y = rng.standard_normal(m)
        state = ProjectionState(y)
        norms = [state.residual_norm]
        for j in range(n_cols):
            project_append(state, g[:, j])
            norms.append(state.residual_norm)
        return state, np.array(norms), g, y

    def test_orthonormal_basis_and_residual_orthogonality(self):
        for seed in range(10):
            state, _, _, _ = self._run_instance(seed, m=30, n_cols=8)
            q = state._q[:, : state.k]
            gram = (q.T @ q) / state.m
            assert np.max(np.abs(gram - np.eye(state.k))) <= 1e-8
            res_corr = np.abs(q.T @ state.residual) / state.m
            assert res_corr.max() <= 1e-8

    def test_residual_norm_matches_recompute(self):
        state, _, _, _ = self._run_instance(3, m=25, n_cols=6)
        assert abs(state.residual_norm - empirical_norm(state.residual)) <= 1e-10

    def test_residual_norm_nonincreasing(self):
        for seed in range(10):
            _, norms, _, _ = self._run_instance(seed, m=20, n_cols=10)
            assert np.all(np.diff(norms) <= 1e-10)

    def test_solve_matches_dense_oracle_many_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            m = int(rng.integers(6, 21))
            k = int(rng.integers(1, 6))
            g = rng.standard_normal((m, k))
            y = rng.standard_normal(m)
            state = ProjectionState(y)
            for j in range(k):
                project_append(state, g[:, j])
            (coef,) = solve_coefficients(state)
            oracle = np.linalg.solve(g.T @ g, g.T @ y)
            denom = max(1.0, np.max(np.abs(oracle)))
            assert np.max(np.abs(coef - oracle)) / denom <= 1e-8

    def test_residual_is_projection_complement(self):
        state, _, g, y = self._run_instance(11, m=15, n_cols=4)
        (coef,) = solve_coefficients(state)
        np.testing.assert_allclose(state.residual, y - g @ coef, atol=1e-10)
