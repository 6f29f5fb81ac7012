import numpy as np
import pytest

from greedyreg.core import DesignMatrix
from greedyreg.dictionary import (
    BadRange,
    DegenerateCenters,
    RbfSpec,
    build_rbf_from_samples,
    build_rbf_uniform,
    evaluate_atoms,
    evaluate_design,
    normalize_columns,
)
from greedyreg.linalg import empirical_norm
from oracles import normalized_design, rbf_atoms


class TestBuildUniform:
    def test_centers_in_range(self):
        spec = build_rbf_uniform(300, -np.pi, np.pi, 1.0, np.random.default_rng(5))
        assert spec.n == 300 and spec.d == 1
        assert spec.centers.min() >= -np.pi and spec.centers.max() <= np.pi
        assert spec.eta == 1.0

    def test_single_center(self):
        spec = build_rbf_uniform(1, 0.0, 1.0, 1.0, np.random.default_rng(0))
        assert spec.n == 1
        assert 0.0 <= spec.centers[0, 0] <= 1.0

    def test_deterministic_under_seed(self):
        a = build_rbf_uniform(50, -1, 1, 0.5, np.random.default_rng(9))
        b = build_rbf_uniform(50, -1, 1, 0.5, np.random.default_rng(9))
        assert np.array_equal(a.centers, b.centers)

    def test_bad_range(self):
        rng = np.random.default_rng(0)
        with pytest.raises(BadRange):
            build_rbf_uniform(10, 1.0, 1.0, 1.0, rng)
        with pytest.raises(BadRange):
            build_rbf_uniform(0, 0.0, 1.0, 1.0, rng)

    def test_bad_eta(self):
        with pytest.raises(ValueError):
            RbfSpec(np.zeros((2, 1)), 0.0)


class TestBuildFromSamples:
    def test_two_points_hand_value(self):
        # d_max = 2, n = 2: eta = 2 / sqrt(4) = 1
        spec = build_rbf_from_samples(np.array([[0.0], [2.0]]))
        assert spec.eta == pytest.approx(1.0)
        assert np.array_equal(spec.centers, [[0.0], [2.0]])

    def test_three_collinear_points(self):
        # d_max = 2, n = 3: eta = 2 / sqrt(6)
        spec = build_rbf_from_samples(np.array([0.0, 1.0, 2.0]))
        assert spec.eta == pytest.approx(2.0 / np.sqrt(6.0))

    def test_identical_inputs_degenerate(self):
        with pytest.raises(DegenerateCenters):
            build_rbf_from_samples(np.array([[1.0], [1.0], [1.0]]))

    def test_single_input_degenerate(self):
        with pytest.raises(DegenerateCenters):
            build_rbf_from_samples(np.array([[1.0]]))

    def test_width_matches_pdist_bit_for_bit(self):
        # the CSV task's dictionary width, and so its report bytes, hang on these bits
        pdist = pytest.importorskip("scipy.spatial.distance").pdist
        rng = np.random.default_rng(12)
        for _ in range(200):
            n, d = int(rng.integers(2, 401)), int(rng.integers(1, 12))
            centers = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0)
            spec = build_rbf_from_samples(centers)
            assert spec.eta == float(pdist(centers).max()) / np.sqrt(2 * n)


class TestEvaluateDesign:
    def test_zero_distance_gives_one(self):
        spec = RbfSpec(np.array([[0.5]]), 2.0)
        dm = evaluate_design(spec, np.array([[0.5]]))
        assert dm.columns[0, 0] == pytest.approx(1.0)

    def test_unit_normalized_distance(self):
        spec = RbfSpec(np.array([[0.0]]), 0.7)
        dm = evaluate_design(spec, np.array([[0.7]]))
        assert dm.columns[0, 0] == pytest.approx(np.exp(-1.0))

    def test_hand_value(self):
        spec = RbfSpec(np.array([[2.0]]), 1.0)
        dm = evaluate_design(spec, np.array([[0.0]]))
        assert dm.columns[0, 0] == pytest.approx(np.exp(-4.0))

    def test_entries_in_unit_interval(self):
        rng = np.random.default_rng(3)
        spec = build_rbf_uniform(40, -np.pi, np.pi, 1.0, rng)
        dm = evaluate_design(spec, rng.uniform(-np.pi, np.pi, size=(60, 1)))
        assert dm.columns.min() > 0.0
        assert dm.columns.max() <= 1.0

    def test_multidimensional_distance(self):
        spec = RbfSpec(np.array([[1.0, 1.0]]), 2.0)
        dm = evaluate_design(spec, np.array([[0.0, 0.0]]))
        assert dm.columns[0, 0] == pytest.approx(np.exp(-2.0 / 4.0))


def _specs_and_inputs():
    """A uniform d=1 dictionary on sinc inputs and a data-centred d=3 one, with eval inputs."""
    rng = np.random.default_rng(30)
    sinc = build_rbf_uniform(300, -np.pi, np.pi, 1.0, rng)
    x1 = rng.uniform(-np.pi, np.pi, size=(250, 1))
    x3 = rng.standard_normal((240, 3))
    data = build_rbf_from_samples(x3[:120])
    return [(sinc, x1), (data, x3)]


class TestMaterializationBits:
    """The in-place materialization has the bits of the plain expressions."""

    @pytest.mark.parametrize("case", [0, 1], ids=["d1", "d3"])
    def test_atoms_match_plain_expression(self, case):
        spec, x = _specs_and_inputs()[case]
        assert np.array_equal(evaluate_atoms(spec, x), rbf_atoms(spec, x))
        subset = [spec.n - 1, 0, 7, 3]
        assert np.array_equal(evaluate_atoms(spec, x, subset), rbf_atoms(spec, x, subset))
        one = x[:1]  # a single sample
        assert np.array_equal(evaluate_atoms(spec, one), rbf_atoms(spec, one))

    @pytest.mark.parametrize("case", [0, 1], ids=["d1", "d3"])
    def test_design_and_normalization_match_plain_expression(self, case):
        spec, x = _specs_and_inputs()[case]
        raw = evaluate_design(spec, x)
        norms, scaled = normalized_design(rbf_atoms(spec, x))
        assert np.array_equal(raw.columns, rbf_atoms(spec, x))
        assert np.array_equal(raw.column_norms, norms)
        dm = normalize_columns(raw)
        assert np.array_equal(dm.columns, scaled)
        assert np.array_equal(dm.column_norms, norms)

    def test_design_holds_the_only_copy(self):
        spec, x = _specs_and_inputs()[0]
        raw = evaluate_design(spec, x)
        dm = normalize_columns(raw)
        for design in (raw, dm):
            assert design.columns.flags.owndata and not design.columns.flags.writeable
        assert not np.shares_memory(raw.columns, dm.columns)
        assert dm.column_norms is raw.column_norms


class TestNormalizeColumns:
    def test_constant_column_becomes_ones(self):
        dm = normalize_columns(DesignMatrix.from_columns(np.full((4, 1), 0.3)))
        np.testing.assert_allclose(dm.columns[:, 0], 1.0)

    def test_hand_scale(self):
        dm = normalize_columns(DesignMatrix.from_columns(np.array([[3.0], [4.0]])))
        np.testing.assert_allclose(
            dm.columns[:, 0], np.array([3.0, 4.0]) / np.sqrt(12.5)
        )
        assert empirical_norm(dm.columns[:, 0]) == pytest.approx(1.0, abs=1e-9)

    def test_dead_column_untouched_and_flagged(self):
        cols = np.array([[1.0, 0.0], [2.0, 0.0]])
        dm = normalize_columns(DesignMatrix.from_columns(cols))
        assert not dm.live[1]
        np.testing.assert_array_equal(dm.columns[:, 1], 0.0)

    def test_idempotent(self):
        dm = normalize_columns(DesignMatrix.from_columns(np.array([[3.0], [4.0]])))
        again = normalize_columns(dm)
        assert again is dm

    def test_unit_norms_after_normalization(self):
        rng = np.random.default_rng(8)
        spec = build_rbf_uniform(25, -2, 2, 1.0, rng)
        dm = normalize_columns(evaluate_design(spec, rng.uniform(-2, 2, size=(40, 1))))
        norms = np.sqrt(np.mean(dm.columns**2, axis=0))
        assert np.max(np.abs(norms - 1.0)) <= 1e-9


def test_prediction_invariance_between_raw_and_normalized():
    """Fitting on normalized columns and de-scaling must match a raw fit."""
    from greedyreg.algorithms import fit_ogl, predict
    from greedyreg.greedy import Criterion

    rng = np.random.default_rng(12)
    spec = build_rbf_uniform(12, -2.0, 2.0, 1.5, rng)
    x_train = rng.uniform(-2, 2, size=(30, 1))
    x_eval = rng.uniform(-2, 2, size=(9, 1))
    y = np.sin(x_train[:, 0]) + 0.05 * rng.standard_normal(30)

    raw = evaluate_design(spec, x_train)
    norm = normalize_columns(raw)
    # same selection order is forced by using the same criterion on the
    # normalized ranking: run the raw fit over pre-scaled columns instead
    trace_norm = fit_ogl(norm, y, Criterion("max"), 5)
    model_norm = trace_norm.final_model()

    pred_eval = predict(model_norm, spec, x_eval)
    direct = evaluate_atoms(spec, x_eval)[:, list(model_norm.selected)] @ model_norm.coefficients
    np.testing.assert_allclose(pred_eval, direct, atol=1e-12)

    # de-scaled coefficients reproduce the least-squares fit on raw columns
    sel = list(model_norm.selected)
    g = raw.columns[:, sel]
    oracle = np.linalg.solve(g.T @ g, g.T @ y)
    np.testing.assert_allclose(model_norm.coefficients, oracle, atol=1e-8)
