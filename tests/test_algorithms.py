from types import SimpleNamespace

import numpy as np
import pytest

from greedyreg import algorithms
from greedyreg.algorithms import (
    ZERO_RESIDUAL_RTOL,
    FitTree,
    IndexOutOfRange,
    MaxPath,
    _fit_projection,
    fit_delta_togl,
    fit_ogl,
    fit_pgl,
    fit_togl,
    predict,
    prefix_predictions,
)
from greedyreg.core import (
    DesignMatrix,
    DICTIONARY_EXHAUSTED,
    FIXED_K,
    NO_ACTIVE_ATOM,
    RESIDUAL_RATIO,
    SparseModel,
    ZERO_RESIDUAL,
)
from greedyreg.data import gen_sinc
from greedyreg.dictionary import (
    RbfSpec,
    build_rbf_from_samples,
    build_rbf_uniform,
    evaluate_design,
    normalize_columns,
)
from greedyreg.greedy import Criterion, correlation, select_atom
from greedyreg.linalg import (
    DEGENERATE_TOL,
    DegenerateColumn,
    ProjectionState,
    empirical_norm,
    project_append,
)


def _unit_design(columns):
    columns = np.asarray(columns, dtype=float)
    columns = columns / np.sqrt(np.mean(columns**2, axis=0))
    return DesignMatrix.from_columns(columns)


def _random_unit_design(rng, m, n):
    return _unit_design(rng.standard_normal((m, n)))


from oracles import correlations, full_scan_pgl, naive_omp


class TestFitOgl:
    def test_exact_single_atom(self):
        rng = np.random.default_rng(0)
        dm = _random_unit_design(rng, 12, 4)
        y = 3.0 * dm.columns[:, 2]
        trace = fit_ogl(dm, y, Criterion("max"), 3)
        assert trace.selected == [2]
        assert trace.termination_reason == ZERO_RESIDUAL
        np.testing.assert_allclose(trace.prefix_model(1).coefficients, [3.0], atol=1e-10)

    def test_orthonormal_two_atoms(self):
        cols = np.array([[1.0, 0.0], [0.0, 1.0]]) * np.sqrt(2)  # unit empirical norm
        dm = DesignMatrix.from_columns(cols)
        y = 3.0 * cols[:, 0] + 1.0 * cols[:, 1]
        trace = fit_ogl(dm, y, Criterion("max"), 2)
        assert trace.selected == [0, 1]
        np.testing.assert_allclose(trace.prefix_model(2).coefficients, [3.0, 1.0], atol=1e-10)

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            m = int(rng.integers(8, 31))
            n = int(rng.integers(3, 11))
            k = min(m, n, int(rng.integers(2, 6)))
            dm = _random_unit_design(rng, m, n)
            y = rng.standard_normal(m)
            trace = fit_ogl(dm, y, Criterion("max"), k)
            ref_selected, ref_prefixes = naive_omp(dm.columns, y, trace.k_fitted)
            assert trace.selected == ref_selected
            for k, theirs in enumerate(ref_prefixes, 1):
                ours = trace.prefix_model(k).coefficients
                assert np.max(np.abs(ours - theirs)) <= 1e-7

    def test_residual_strictly_decreases(self):
        rng = np.random.default_rng(5)
        dm = _random_unit_design(rng, 20, 8)
        y = rng.standard_normal(20)
        trace = fit_ogl(dm, y, Criterion("max"), 8)
        norms = np.array([empirical_norm(y)] + trace.residual_norms)
        assert np.all(np.diff(norms) <= 1e-10)
        meaningful = np.array(trace.selected_correlations) > 1e-6
        assert np.all(np.diff(norms)[meaningful] < 0)

    def test_rejects_thresholded_criterion(self):
        dm = _unit_design(np.ones((3, 1)))
        with pytest.raises(ValueError):
            fit_ogl(dm, np.ones(3), Criterion("max", 0.1), 1)

    def test_k_max_bounds(self):
        dm = _unit_design(np.ones((3, 1)))
        with pytest.raises(ValueError):
            fit_ogl(dm, np.ones(3), Criterion("max"), 2)

    def test_interpolation_when_overcomplete(self):
        # n >= m with full row rank: k_max = m drives the train residual to zero
        rng = np.random.default_rng(17)
        m, n = 6, 10
        dm = _random_unit_design(rng, m, n)
        y = rng.standard_normal(m)
        trace = fit_ogl(dm, y, Criterion("max"), m)
        assert trace.residual_norms[-1] < 1e-8 * empirical_norm(y)

    def test_dead_column_never_selected(self):
        cols = np.column_stack([np.zeros(5), np.ones(5), np.arange(5.0)])
        dm = DesignMatrix.from_columns(cols)
        y = np.arange(5.0) + 1.0
        trace = fit_ogl(dm, y, Criterion("max"), 2)
        assert 0 not in trace.selected

    @pytest.mark.xfail(
        reason="selected correlations are not monotone: on the orthonormal "
        "design with target weights (1, 0.9, 0.8) the sequence is "
        "0.639, 0.747, 1.0 (increasing); both orderings fail on random "
        "well-conditioned instances",
        strict=False,
    )
    def test_selected_correlations_nonincreasing(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            dm = _random_unit_design(rng, 25, 8)
            y = rng.standard_normal(25)
            trace = fit_ogl(dm, y, Criterion("max"), 8)
            assert np.all(np.diff(trace.selected_correlations) <= 1e-6)


class TestFitPgl:
    def test_requires_normalized_design(self):
        dm = DesignMatrix.from_columns(np.array([[3.0], [4.0]]))
        with pytest.raises(ValueError):
            fit_pgl(dm, np.array([1.0, 1.0]), 3)

    def test_single_atom_target_converges_in_one_step(self):
        rng = np.random.default_rng(1)
        spec = build_rbf_uniform(5, -1, 1, 1.0, rng)
        x = rng.uniform(-1, 1, size=(10, 1))
        dm = normalize_columns(evaluate_design(spec, x))
        y = 2.0 * dm.columns[:, 3]
        trace = fit_pgl(dm, y, 5)
        assert trace.selected[0] == 3
        assert trace.residual_norms[0] < 1e-12

    def test_matches_ogl_on_orthonormal_design(self):
        # with orthonormal atoms the pure and orthogonal schemes coincide
        rng = np.random.default_rng(3)
        raw = rng.standard_normal((12, 5))
        q, _ = np.linalg.qr(raw)
        cols = q * np.sqrt(12)  # unit empirical norm, mutually orthogonal
        dm_pgl = DesignMatrix(cols, np.ones(5), normalized=True)
        dm_ogl = DesignMatrix.from_columns(cols)
        y = rng.standard_normal(12)
        k = 5
        t_pgl = fit_pgl(dm_pgl, y, k)
        t_ogl = fit_ogl(dm_ogl, y, Criterion("max"), k)
        eval_cols = cols
        p_pgl = prefix_predictions(t_pgl, eval_cols, range(k + 1))
        p_ogl = prefix_predictions(t_ogl, eval_cols, range(k + 1))
        for kk in range(k + 1):  # row kk is the prefix of kk iterations
            np.testing.assert_allclose(p_pgl[kk], p_ogl[kk], atol=1e-8)

    def test_slower_than_ogl_on_correlated_atoms(self):
        # two correlated atoms: pure greedy shrinks the residual strictly
        # but lags the orthogonal fit at equal k
        theta = 0.4
        cols = np.column_stack(
            [np.array([1.0, 0.0]), np.array([np.cos(theta), np.sin(theta)])]
        ) * np.sqrt(2)
        dm = DesignMatrix(cols, np.sqrt(np.mean(cols**2, axis=0)), normalized=True)
        y = np.array([1.0, 2.0])
        t_pgl = fit_pgl(dm, y, 6)
        t_ogl = fit_ogl(DesignMatrix.from_columns(cols), y, Criterion("max"), 2)
        norms = np.array([empirical_norm(y)] + t_pgl.residual_norms)
        assert np.all(np.diff(norms) < 0)
        assert t_pgl.residual_norms[1] > t_ogl.residual_norms[1] - 1e-12

    def test_atoms_may_repeat(self):
        theta = 0.3
        cols = np.column_stack(
            [np.array([1.0, 0.0]), np.array([np.cos(theta), np.sin(theta)])]
        ) * np.sqrt(2)
        dm = DesignMatrix(cols, np.sqrt(np.mean(cols**2, axis=0)), normalized=True)
        y = np.array([1.0, 2.0])
        trace = fit_pgl(dm, y, 30)
        assert len(set(trace.selected)) < len(trace.selected)
        model = trace.prefix_model(trace.k_fitted)
        assert model.sparsity == len(set(trace.selected))


def _sinc_design(n, eta, m=200, seed=5):
    rng = np.random.default_rng(seed)
    train, _ = gen_sinc(m, 10, 0.3, rng)
    spec = build_rbf_uniform(n, -np.pi, np.pi, eta, rng)
    return normalize_columns(evaluate_design(spec, train.inputs)), train.targets


class TestScreenedPgl:
    """fit_pgl computes exactly only the atoms that its sketch cannot rule out,
    and its trace is a full scan's (tests/oracles.py) field for field."""

    @staticmethod
    def _check(dm, y, k_max):
        """The trace, checked against the full scan, and the full scan's step count."""
        trace = fit_pgl(dm, y, k_max)
        *fields, computed = full_scan_pgl(dm.columns, dm.live, dm.column_norms, y, k_max)
        got = [trace.selected, trace.increments, trace.residual_norms,
               trace.selected_correlations, trace.termination_reason]
        assert got == fields
        assert trace.iterations == len(trace.selected)
        return trace, computed // dm.n

    @pytest.mark.parametrize("which", [0, 1], ids=["sinc-greedy", "csv-greedy"])
    def test_benchmark_designs(self, benchmark_designs, which):
        dm, y = benchmark_designs[which]
        trace, steps = self._check(dm, y, 100)
        if which == 0:
            # numerical rank about 25 of 1000 atoms: a few exact correlations per
            # step (4 on the BLAS this was written on), never a full scan
            assert algorithms._PglSketch(dm).basis is not None
            assert trace.atoms_scanned <= 8 * steps
        else:
            # full rank: no basis, every step is the full scan
            assert algorithms._PglSketch(dm).basis is None
            assert trace.atoms_scanned == steps * dm.n

    def test_dead_columns_are_never_picked(self):
        dm, y = _low_rank_design()  # 300 dead columns, then 300 live low-rank ones
        assert algorithms._PglSketch(dm).basis is not None
        trace, steps = self._check(dm, y, 40)
        assert min(trace.selected) >= 300 and trace.atoms_scanned < steps * dm.n

    def test_duplicate_columns_tie_to_the_lowest_index(self):
        base, _ = _sinc_design(120, 1.0)
        columns = base.columns.copy()
        columns[:, 40] = columns[:, 8]
        dm = DesignMatrix(columns, base.column_norms, normalized=True)
        y = 2.0 * columns[:, 8] + 0.01 * np.random.default_rng(6).standard_normal(dm.m)
        inner = columns.T @ y
        assert inner[8] == inner[40] and np.argmax(np.abs(inner)) == 8  # an exact tie
        assert algorithms._PglSketch(dm).basis is not None
        trace, _ = self._check(dm, y, 20)
        assert trace.selected[0] == 8 and 40 not in trace.selected

    def test_random_full_rank_design_has_no_basis(self):
        rng = np.random.default_rng(9)
        dm = normalize_columns(DesignMatrix.from_columns(rng.standard_normal((60, 120))))
        y = rng.standard_normal(60)
        assert algorithms._PglSketch(dm).basis is None
        trace, steps = self._check(dm, y, 30)
        assert trace.atoms_scanned == steps * dm.n

    def test_target_orthogonal_to_every_live_atom(self):
        base, _ = _sinc_design(100, 1.0, m=30)
        # the atoms live on the first 30 rows, the target on the last 30
        columns = np.vstack([base.columns, np.zeros((30, 100))]) * np.sqrt(2.0)
        dm = normalize_columns(DesignMatrix.from_columns(columns))
        y = np.concatenate([np.zeros(30), np.random.default_rng(2).standard_normal(30)])
        trace, _ = self._check(dm, y, 10)
        assert trace.termination_reason == NO_ACTIVE_ATOM and trace.k_fitted == 0
        assert trace.atoms_scanned == dm.n

    def test_atoms_told_apart_only_by_their_tails(self):
        # 64 atoms c + 1e-5 w_k: a 32-wide basis holds c and some of the w_k,
        # so the order of the rest shows only in their tails
        rng = np.random.default_rng(11)
        c, w = rng.standard_normal(100), rng.standard_normal((100, 64))
        dm = normalize_columns(DesignMatrix.from_columns(c[:, None] + 1e-5 * w))
        assert algorithms._PglSketch(dm).basis is not None
        trace, _ = self._check(dm, c + w[:, 5], 10)
        assert trace.selected[0] == 5

    @pytest.mark.parametrize("m", [100, 4000])
    def test_rounding_margin_grows_with_m(self, m):
        # a rank-3 design: every tail is at rounding level, so an atom's radius
        # per unit of ‖a_j‖‖r‖ is the margin c_m = max(1e-12, (12√p + 14)γ_(m+3))
        rng = np.random.default_rng(8)
        dm = normalize_columns(DesignMatrix.from_columns(
            rng.standard_normal((m, 3)) @ rng.standard_normal((3, 64))))
        sketch = algorithms._PglSketch(dm)
        p = sketch.basis.shape[1]
        u = np.finfo(float).eps / 2
        gamma = (m + 3) * u / (1 - (m + 3) * u)
        expected = max(1e-12, (12 * np.sqrt(p) + 14) * gamma)
        per_unit = sketch.radii / m  # the radii are in units of the residual's empirical norm
        assert 0.99 * expected < per_unit.min() and per_unit.max() < 1.01 * expected
        assert (expected == 1e-12) == (m == 100)

    def test_steps_that_compute_several_blocks(self, monkeypatch):
        dm, y = _sinc_design(400, 0.5)  # tails up to about 1e-5: wider bounds
        counts = []  # ranges per step
        blocks = algorithms._PglSketch.blocks

        def spy(sketch, residual, residual_norm):
            ranges = blocks(sketch, residual, residual_norm)
            counts.append(len(ranges))
            return ranges

        monkeypatch.setattr(algorithms._PglSketch, "blocks", spy)
        self._check(dm, y, 60)
        assert max(counts) > 1

    def test_blocks_are_aligned_capped_and_cover_every_candidate(self):
        dm, y = _sinc_design(1002, 1.0)
        sketch = algorithms._PglSketch(dm)
        assert sketch.basis is not None
        norm = empirical_norm(y)
        for wide in ([], [3], [5, 6, 7, 8, 9], list(range(100, 700)), [0, 1001],
                     list(range(1002))):
            sketch.radii[wide] = 1e3  # candidates whatever the residual
            ranges = sketch.blocks(y, norm)
            if len(wide) == dm.n:
                assert ranges == [(0, dm.n)]
            covered = np.zeros(dm.n, dtype=bool)
            for start, stop in ranges:
                assert start % 4 == 0 and ((stop - start) % 4 == 0 or stop == dm.n)
                assert stop - start <= 256 or (start, stop) == (0, dm.n)
                covered[start:stop] = True
            assert covered[wide].all()
            sketch.radii[wide] = 0.0


class TestFitTogl:
    def test_threshold_above_everything_gives_empty_model(self):
        rng = np.random.default_rng(4)
        dm = _random_unit_design(rng, 10, 4)
        y = rng.standard_normal(10)
        trace = fit_togl(dm, y, Criterion("max", 0.999999), 4)
        assert trace.k_fitted == 0
        assert trace.termination_reason == NO_ACTIVE_ATOM

    def test_vanishing_threshold_recovers_plain_fit(self):
        rng = np.random.default_rng(6)
        dm = _random_unit_design(rng, 15, 6)
        y = rng.standard_normal(15)
        t_plain = fit_ogl(dm, y, Criterion("max"), 6)
        t_thresh = fit_togl(dm, y, Criterion("max", 1e-12), 6)
        assert t_plain.selected == t_thresh.selected
        np.testing.assert_allclose(
            t_plain.residual_norms, t_thresh.residual_norms, atol=1e-12
        )

    def test_stops_exactly_when_max_correlation_drops(self):
        rng = np.random.default_rng(7)
        dm = _random_unit_design(rng, 30, 8)
        y = rng.standard_normal(30)
        delta = 0.3
        trace = fit_togl(dm, y, Criterion("max", delta), 8)
        # every accepted atom was above delta at selection time
        assert all(c > delta for c in trace.selected_correlations)
        if trace.termination_reason == NO_ACTIVE_ATOM:
            # replaying the fit confirms nothing above delta remains
            state = ProjectionState(y)
            for idx in trace.selected:
                project_append(state, dm.columns[:, idx])
            corr = correlations(dm.columns, state.residual)
            corr[list(trace.selected)] = 0.0
            assert corr.max() <= delta + 1e-12


class TestFitDeltaTogl:
    def test_huge_delta_stops_immediately(self):
        rng = np.random.default_rng(8)
        dm = _random_unit_design(rng, 10, 5)
        y = rng.standard_normal(10)
        trace = fit_delta_togl(dm, y, 0.999, "max")
        assert trace.k_fitted <= 2

    def test_sinc_benchmark_sparsity_band(self):
        # m=1000, n=300, sigma=0.1: adaptive stop lands near the k* regime
        rng = np.random.default_rng(202)
        train, _ = gen_sinc(1000, 10, 0.1, rng)
        spec = build_rbf_uniform(300, -np.pi, np.pi, 1.0, np.random.default_rng(303))
        dm = normalize_columns(evaluate_design(spec, train.inputs))
        trace = fit_delta_togl(dm, train.targets, 0.1, "max")
        assert 5 <= trace.k_fitted <= 15

    def test_matches_togl_until_ratio_fires(self):
        rng = np.random.default_rng(9)
        dm = _random_unit_design(rng, 25, 10)
        y = rng.standard_normal(25)
        delta = 0.35
        t_adaptive = fit_delta_togl(dm, y, delta, "max")
        t_capped = fit_togl(dm, y, Criterion("max", delta), 10)
        k = t_adaptive.k_fitted
        assert t_capped.selected[:k] == t_adaptive.selected
        if t_adaptive.termination_reason != "residual_ratio":
            assert t_capped.selected == t_adaptive.selected

    def test_delta_nesting(self):
        # larger delta selects a prefix of what a smaller delta selects
        rng = np.random.default_rng(10)
        for seed in range(8):
            r = np.random.default_rng(seed)
            dm = _random_unit_design(r, 40, 12)
            y = r.standard_normal(40)
            small = fit_delta_togl(dm, y, 0.05, "max")
            large = fit_delta_togl(dm, y, 0.4, "max")
            k = large.k_fitted
            assert small.selected[:k] == large.selected

    def test_first_selection_is_cheap_path(self):
        rng = np.random.default_rng(11)
        dm = _random_unit_design(rng, 30, 20)
        y = rng.standard_normal(30)
        trace = fit_delta_togl(dm, y, 0.2, "first")
        assert all(c > 0.2 for c in trace.selected_correlations)

    def test_rand_selection_reproducible(self):
        rng_a = np.random.default_rng(12)
        dm = _random_unit_design(rng_a, 20, 8)
        y = rng_a.standard_normal(20)
        t1 = fit_delta_togl(dm, y, 0.1, "rand", rng=np.random.default_rng(5))
        t2 = fit_delta_togl(dm, y, 0.1, "rand", rng=np.random.default_rng(5))
        assert t1.selected == t2.selected


def _fresh_scan_fit(dm, y, criterion, k_cap, ratio_delta, rng):
    """The projection loop with a fresh select_atom scan on every attempt."""
    y_norm = empirical_norm(y)
    state = ProjectionState(y)
    excluded = np.zeros(dm.n, dtype=bool)
    selected, norms, corrs = [], [], []
    attempts = 0
    while True:
        if state.residual_norm < ZERO_RESIDUAL_RTOL * y_norm:
            return selected, norms, corrs, attempts, ZERO_RESIDUAL
        if k_cap is not None and len(selected) >= k_cap:
            return selected, norms, corrs, attempts, FIXED_K
        if ratio_delta is not None and state.residual_norm <= ratio_delta * y_norm:
            return selected, norms, corrs, attempts, RESIDUAL_RATIO
        idx = select_atom(dm, state.residual, state.residual_norm, criterion, excluded, rng)
        if idx is None:
            active = criterion.thresholded and bool((dm.live & ~excluded).any())
            reason = NO_ACTIVE_ATOM if active else DICTIONARY_EXHAUSTED
            return selected, norms, corrs, attempts, reason
        attempts += 1
        corr = correlation(state.residual, state.residual_norm, dm.columns[:, idx])
        excluded[idx] = True
        try:
            project_append(state, dm.columns[:, idx])
        except DegenerateColumn:
            continue
        selected.append(idx)
        norms.append(state.residual_norm)
        corrs.append(corr)


def _low_rank_design():
    """A design of numerical rank about 25, so most attempts hit a degenerate
    column.  300 dead columns in front put every skip past the first scan
    blocks, so a resumed "first" scan reads a block it computed."""
    train, _ = gen_sinc(80, 10, 0.1, np.random.default_rng(3))
    spec = build_rbf_uniform(300, -np.pi, np.pi, 1.0, np.random.default_rng(4))
    dm = normalize_columns(evaluate_design(spec, train.inputs))
    padded = DesignMatrix(
        np.column_stack([np.zeros((80, 300)), dm.columns]),
        np.concatenate([np.zeros(300), dm.column_norms]),
        normalized=True,
    )
    return padded, train.targets


def _trace_facts(trace):
    return (
        trace.selected, trace.residual_norms, trace.selected_correlations,
        trace.iterations, trace.termination_reason,
    )


class TestCandidatePoolReuse:
    """A fit reuses one residual's scan across degenerate skips, picking
    exactly what a fresh scan per attempt would pick."""

    @pytest.fixture(scope="class")
    def low_rank(self):
        return _low_rank_design()

    @pytest.mark.parametrize(
        "kind, delta",
        [(k, None) for k in ("max", "max2", "max3", "rand")]
        + [(k, 1e-12) for k in ("max", "max2", "max3", "rand", "first")],
    )
    def test_matches_fresh_scan_per_attempt(self, low_rank, kind, delta):
        dm, y = low_rank
        criterion = Criterion(kind, delta)
        # unthresholded: run to the end of the dictionary; thresholded: delta-TOGL
        k_cap = dm.n if delta is None else None
        trace = _fit_projection(dm, y, criterion, k_cap, delta, np.random.default_rng(7))
        expected = _fresh_scan_fit(dm, y, criterion, k_cap, delta, np.random.default_rng(7))
        assert _trace_facts(trace) == expected
        assert trace.degenerate_skips > 0


class TestFitTree:
    """Fits that share a FitTree come out bit for bit as they would alone,
    and what one fit appended or scanned, the next one reads."""

    DELTAS = (1e-12, 1e-6, 1e-3, 0.05, 0.3)

    @pytest.fixture(scope="class")
    def low_rank(self):
        return _low_rank_design()

    @pytest.mark.parametrize("kind", ["max", "max2", "max3", "rand", "first"])
    def test_shared_delta_sweep_matches_separate_fits(self, low_rank, kind):
        dm, y = low_rank
        tree = FitTree(dm, y)
        skips = 0
        for delta in self.DELTAS:
            shared = fit_delta_togl(dm, y, delta, kind, np.random.default_rng(7), tree=tree)
            alone = fit_delta_togl(dm, y, delta, kind, np.random.default_rng(7))
            assert _trace_facts(shared) == _trace_facts(alone)
            assert np.array_equal(shared.state.residual, alone.state.residual)
            assert np.array_equal(
                shared.prefix_model(shared.k_fitted).coefficients,
                alone.prefix_model(alone.k_fitted).coefficients,
            )
            skips += shared.degenerate_skips
        assert skips > 0

    def test_capped_fits_share_a_tree(self, low_rank):
        dm, y = low_rank
        tree = FitTree(dm, y)
        fits = [
            lambda t: _fit_projection(dm, y, Criterion("max"), dm.n, tree=t),
            lambda t: _fit_projection(dm, y, Criterion("max"), 5, tree=t),
            lambda t: fit_togl(dm, y, Criterion("max", 1e-3), 8, tree=t),
        ]
        for fit in fits:
            shared, alone = fit(tree), fit(None)
            assert _trace_facts(shared) == _trace_facts(alone)
            assert np.array_equal(shared.state.residual, alone.state.residual)

    def test_repeat_fit_appends_and_scans_nothing(self, low_rank, monkeypatch):
        dm, y = low_rank
        tree = FitTree(dm, y)
        first = fit_delta_togl(dm, y, 1e-6, "first", tree=tree)
        appends = []
        real_append = algorithms.project_append
        monkeypatch.setattr(
            algorithms, "project_append", lambda *args: appends.append(1) or real_append(*args)
        )
        again = fit_delta_togl(dm, y, 1e-6, "first", tree=tree)
        assert _trace_facts(again) == _trace_facts(first)
        assert first.atoms_scanned > 0 and first.k_fitted > 0
        assert again.atoms_scanned == 0
        assert appends == []

    def test_budget_bounds_what_the_tree_keeps(self, low_rank):
        dm, y = low_rank
        tree = FitTree(dm, y)
        # one tree serves every kind: it records residuals, not picks
        for kind in ("max", "first", "max2", "rand"):
            for delta in self.DELTAS:
                shared = fit_delta_togl(dm, y, delta, kind, np.random.default_rng(7), tree=tree)
                alone = fit_delta_togl(dm, y, delta, kind, np.random.default_rng(7))
                assert _trace_facts(shared) == _trace_facts(alone)
        # every kept entry is charged, a degenerate column as well as a node
        charged, degenerate, stack = 0, 0, [(tree.root, 0)]
        while stack:
            node, depth = stack.pop()
            for child in node.children.values():
                charged += algorithms._ENTRY_FLOATS
                if child is None:
                    degenerate += 1
                else:
                    # basis column and residual, factor column, correlations
                    charged += 2 * dm.m + depth + 1 + dm.n
                    stack.append((child, depth + 1))
        assert degenerate > 0
        assert charged == dm.m * dm.n - tree.budget
        # the budget ran out: no further node fits in what is left
        assert tree.budget < 2 * dm.m + dm.n

    def test_tree_belongs_to_one_design_and_target(self, low_rank):
        dm, y = low_rank
        tree = FitTree(dm, y)
        with pytest.raises(ValueError, match="another design or target"):
            fit_delta_togl(dm, y + 1.0, 0.1, tree=tree)
        other = DesignMatrix(dm.columns.copy(), dm.column_norms, normalized=True)
        with pytest.raises(ValueError, match="another design or target"):
            fit_delta_togl(other, y, 0.1, tree=tree)


def _counted_appends(monkeypatch):
    """Record each project_append the fits make: True if it appended, False if it raised."""
    calls = []
    real_append = algorithms.project_append

    def append(state, column):
        try:
            real_append(state, column)
        except DegenerateColumn:
            calls.append(False)
            raise
        calls.append(True)
        return state

    monkeypatch.setattr(algorithms, "project_append", append)
    return calls


def _recorded_screens(monkeypatch):
    """Record each screened block: its atoms and which of them were flagged."""
    screens = []
    real_screen = algorithms._Walk._degenerate

    def screen(walk, atoms):
        flags = real_screen(walk, atoms)
        screens.append((atoms.tolist(), flags.tolist()))
        return flags

    monkeypatch.setattr(algorithms._Walk, "_degenerate", screen)
    return screens


class TestDegenerateScreen:
    """After a degenerate skip a fit screens the next candidates in one
    product and skips those clearly inside the span without appending;
    every pick, skip and append stays what it was."""

    @pytest.fixture(scope="class")
    def low_rank(self):
        return _low_rank_design()

    @pytest.mark.parametrize("kind", ["max", "max2", "max3", "rand"])
    def test_screened_fit_matches_fresh_scan(self, low_rank, kind, monkeypatch):
        dm, y = low_rank
        appends = _counted_appends(monkeypatch)
        screens = _recorded_screens(monkeypatch)
        trace = _fit_projection(dm, y, Criterion(kind), dm.n, None, np.random.default_rng(7))
        expected = _fresh_scan_fit(dm, y, Criterion(kind), dm.n, None, np.random.default_rng(7))
        assert _trace_facts(trace) == expected
        # the screen fired: most skips made no append
        flagged = sum(sum(flags) for _, flags in screens)
        assert appends.count(True) == trace.k_fitted
        assert len(appends) + flagged >= trace.iterations
        assert 4 * appends.count(False) < trace.degenerate_skips

    def test_near_tolerance_columns_take_the_exact_route(self, monkeypatch):
        m = 40
        q, _ = np.linalg.qr(np.random.default_rng(14).standard_normal((m, 6)))
        u = q * np.sqrt(m)
        inside = u[:, :2] @ np.random.default_rng(15).standard_normal((2, 10))
        near = np.column_stack([
            u[:, 0] + 0.7 * DEGENERATE_TOL * u[:, 4], u[:, 1] + 1.3 * DEGENERATE_TOL * u[:, 5]
        ])
        dm = DesignMatrix.from_columns(np.column_stack([u[:, :2], inside, near]))
        y = 3.0 * u[:, 0] + 2.0 * u[:, 1] + u[:, 2]
        tried, appended = [], []
        real_append = algorithms.project_append

        def append(state, column):
            idx = int(np.flatnonzero((dm.columns == column[:, None]).all(axis=0))[0])
            tried.append(idx)
            real_append(state, column)
            appended.append(idx)
            return state

        monkeypatch.setattr(algorithms, "project_append", append)
        screens = _recorded_screens(monkeypatch)
        trace = fit_ogl(dm, y, Criterion("max"), dm.n)
        assert trace.termination_reason == DICTIONARY_EXHAUSTED
        # 0.7 tol: screened, not flagged, tried by project_append and skipped
        seen = {atom: flag for atoms, flags in screens for atom, flag in zip(atoms, flags)}
        assert seen[12] is False
        assert 12 in tried and 12 not in appended and 12 not in trace.selected
        # 1.3 tol: appended
        assert 13 in trace.selected and 13 in appended
        assert any(seen.get(atom) for atom in range(2, 12))

    def test_cut_stops_inside_a_screened_run(self, low_rank, monkeypatch):
        dm, y = low_rank
        appends = _counted_appends(monkeypatch)
        path = MaxPath(dm, y)
        attempts_at_append = []
        counted_append = algorithms.project_append

        def append(state, column):
            attempts_at_append.append(path._walk.attempts)
            return counted_append(state, column)

        monkeypatch.setattr(algorithms, "project_append", append)
        fit_ogl(dm, y, Criterion("max"), dm.n, None, path)
        monkeypatch.setattr(algorithms, "project_append", counted_append)
        tried = set(attempts_at_append)  # attempt numbers (1-based) that called project_append
        tops = [top for top, _, _ in path._picks]
        # a pick inside a run of screened skips, below the one before it
        j = next(
            j for j in range(1, len(tops) - 1)
            if not {j, j + 1, j + 2} & tried and tops[j - 1] > tops[j] > 0
        )
        delta = tops[j]
        alone = fit_delta_togl(dm, y, delta, "max")
        appends.clear()
        fresh = MaxPath(dm, y)
        cut = fit_delta_togl(dm, y, delta, "max", None, fresh)
        assert _all_fields(cut) == _all_fields(alone)
        assert cut.termination_reason == NO_ACTIVE_ATOM and cut.iterations == j
        # the path stopped at the pick: no attempt past it
        assert fresh._walk.attempts == j and len(fresh._picks) == j + 1
        assert len(appends) == len([a for a in attempts_at_append if a <= j])

    def test_one_duplicate_in_a_full_rank_design_screens_one_block(self, monkeypatch):
        rng = np.random.default_rng(16)
        g = rng.standard_normal((60, 30))
        dm = _unit_design(np.column_stack([g, g[:, 4]]))
        y = rng.standard_normal(60)
        appends = _counted_appends(monkeypatch)
        screens = _recorded_screens(monkeypatch)
        trace = _fit_projection(dm, y, Criterion("rand"), dm.n, None, np.random.default_rng(3))
        assert trace.k_fitted == 30 and trace.degenerate_skips == 1
        assert len(appends) == 31
        assert len(screens) == 1 and len(screens[0][0]) <= 8 and not any(screens[0][1])

    def test_sinc_cell_appends_kept_atoms_and_fallbacks(self, monkeypatch):
        # a sinc cell as the benchmark builds it, smaller: numerical rank about 25
        rng = np.random.default_rng(1)
        train, _ = gen_sinc(300, 10, 0.1, rng)
        spec = build_rbf_uniform(600, -np.pi, np.pi, 1.0, rng)
        dm = normalize_columns(evaluate_design(spec, train.inputs))
        y = train.targets
        expected = _fresh_scan_fit(dm, y, Criterion("max"), 100, None, None)
        appends = _counted_appends(monkeypatch)
        path = MaxPath(dm, y)
        trace = fit_ogl(dm, y, Criterion("max"), 100, None, path)
        assert _trace_facts(trace) == expected
        fallbacks = appends.count(False)
        assert len(appends) == trace.k_fitted + fallbacks
        assert trace.degenerate_skips > 500 and 20 * fallbacks < trace.degenerate_skips


def _full_rank_design():
    """A data-centred RBF design (centers = inputs, m = n = 360) of full
    rank: a small-delta fit keeps more atoms than the 300-atom cap."""
    rng = np.random.default_rng(21)
    x = rng.uniform(0.0, 1.0, size=(360, 3))
    y = np.sin(2.0 * np.pi * x[:, 0]) + x[:, 1] ** 2 + 0.1 * rng.standard_normal(360)
    dm = normalize_columns(evaluate_design(build_rbf_from_samples(x), x))
    return dm, y - y.mean()


def _all_fields(trace):
    return _trace_facts(trace) + (trace.atoms_scanned,)


class TestMaxPath:
    """Every max fit of one design and target is a cut of one unthresholded
    path: bit for bit the fit run alone, with the path run only as far as
    the cuts needed."""

    @pytest.fixture(scope="class")
    def designs(self):
        low_dm, low_y = _low_rank_design()
        full_dm, full_y = _full_rank_design()
        # a target equal to one atom: its fit leaves a zero residual
        return {
            "low rank": (low_dm, low_y, (1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.05, 0.3, 0.9)),
            "one atom": (low_dm, 3.0 * low_dm.columns[:, 320], (1e-6, 0.3)),
            "full rank": (full_dm, full_y, (1e-4, 5e-3, 0.05, 0.3)),
        }

    @staticmethod
    def _check(fit, path, reasons):
        cut, alone = fit(path), fit(None)
        assert _all_fields(cut) == _all_fields(alone)
        assert np.array_equal(
            cut.prefix_model(cut.k_fitted).coefficients,
            alone.prefix_model(alone.k_fitted).coefficients,
        )
        assert alone.seconds is None and cut.seconds >= 0.0
        reasons.add((cut.termination_reason, cut.degenerate_skips > 0))
        return cut.iterations

    def test_cuts_match_direct_fits(self, designs):
        reasons, longest = set(), {}
        for name, (dm, y, deltas) in designs.items():
            path = MaxPath(dm, y)
            cap = min(dm.n, 300)
            cuts = [
                lambda p, k=k: fit_ogl(dm, y, Criterion("max"), k, None, p)
                for k in (1, 7, cap, dm.n)
            ]
            for delta in deltas:
                crit = Criterion("max", delta)
                cuts.append(lambda p, crit=crit: fit_togl(dm, y, crit, cap, None, p))
                cuts.append(lambda p, delta=delta: fit_delta_togl(dm, y, delta, "max", None, p))
            longest[name] = max(self._check(fit, path, reasons) for fit in cuts)
        kinds = {reason for reason, _ in reasons}
        assert {ZERO_RESIDUAL, FIXED_K, RESIDUAL_RATIO, DICTIONARY_EXHAUSTED} <= kinds
        assert (NO_ACTIVE_ATOM, True) in reasons  # stopped after degenerate skips
        # the full-rank path ran past the 300-atom cap
        assert longest["full rank"] > 300

    def test_path_runs_only_as_far_as_its_cuts_need(self, designs, monkeypatch):
        dm, y, _ = designs["full rank"]
        deltas = (0.3, 0.05, 1e-4)
        alone = {delta: fit_delta_togl(dm, y, delta, "max").iterations for delta in deltas}
        appends = []
        real_append = algorithms.project_append
        monkeypatch.setattr(
            algorithms, "project_append", lambda *args: appends.append(1) or real_append(*args)
        )
        path = MaxPath(dm, y)
        # the first cut stops at its first pick, which the path then leaves untried
        appended = ((0.3, 0), (0.05, alone[0.05]), (1e-4, alone[1e-4]), (0.3, alone[1e-4]))
        for delta, made in appended:
            assert fit_delta_togl(dm, y, delta, "max", None, path).iterations == alone[delta]
            assert len(appends) == made
        assert 0 == alone[0.3] < alone[0.05] < alone[1e-4]

    def test_cut_seconds_cover_its_own_stretch_of_the_path(self, designs, monkeypatch):
        # a clock that advances one second per selection
        clock = [0.0]
        real_select = algorithms.select_atom

        def select(*args):
            clock[0] += 1.0
            return real_select(*args)

        monkeypatch.setattr(algorithms, "select_atom", select)
        monkeypatch.setattr(algorithms, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
        dm, y, _ = designs["full rank"]
        path = MaxPath(dm, y)
        for delta in (1e-4, 0.3, 0.05, 0.3):
            seconds = fit_delta_togl(dm, y, delta, "max", None, path).seconds
            start = clock[0]
            fit_delta_togl(dm, y, delta, "max")
            assert seconds == clock[0] - start  # the selections the fit makes alone

    def test_one_block_serves_the_cuts_of_a_delta_sweep(self, designs):
        # each cut's atoms lead the longest cut's, and each prefix is solved as if alone
        distinct = {}
        for name, (dm, y, deltas) in designs.items():
            path = MaxPath(dm, y)
            test_columns = np.random.default_rng(dm.n).standard_normal((50, dm.n))
            cuts, alone = [], []
            for delta in deltas:
                for cut in (
                    fit_delta_togl(dm, y, delta, "max", None, path),
                    fit_togl(dm, y, Criterion("max", delta), min(dm.n, 300), None, path),
                ):
                    cuts.append(cut)
                    (pred,) = prefix_predictions(cut, test_columns, [cut.k_fitted])
                    alone.append(pred)
            longest = max(cuts, key=lambda cut: cut.k_fitted)
            ks = [cut.k_fitted for cut in cuts]
            block = prefix_predictions(longest, test_columns, ks)
            for row, pred in zip(block, alone):
                assert np.array_equal(row, pred)
            distinct[name] = len(set(ks))
        assert distinct["low rank"] > 2 and distinct["full rank"] > 2

    def test_serves_only_its_design_target_and_criterion(self, designs):
        dm, y, _ = designs["low rank"]
        path = MaxPath(dm, y)
        with pytest.raises(ValueError, match="another design or target"):
            fit_delta_togl(dm, y + 1.0, 0.1, "max", None, path)
        with pytest.raises(ValueError, match="max criterion"):
            fit_delta_togl(dm, y, 0.1, "first", None, path)


class TestPredict:
    def test_empty_model_predicts_zero(self):
        spec = RbfSpec(np.array([[0.0]]), 1.0)
        model = SparseModel((), np.zeros(0))
        np.testing.assert_array_equal(predict(model, spec, np.zeros((4, 1))), 0.0)

    def test_single_atom_at_center(self):
        spec = RbfSpec(np.array([[0.3], [1.2]]), 1.0)
        model = SparseModel((1,), np.array([1.0]))
        pred = predict(model, spec, np.array([[1.2]]))
        assert pred[0] == pytest.approx(1.0)

    def test_truncation_applies(self):
        spec = RbfSpec(np.array([[0.0]]), 1.0)
        model = SparseModel((0,), np.array([0.9]))
        pred = predict(model, spec, np.array([[0.0]]), truncate_at=0.5)
        assert pred[0] == pytest.approx(0.5)

    def test_index_out_of_range(self):
        spec = RbfSpec(np.array([[0.0]]), 1.0)
        model = SparseModel((3,), np.array([1.0]))
        with pytest.raises(IndexOutOfRange):
            predict(model, spec, np.array([[0.0]]))


class TestPrefixMachinery:
    def test_prefix_predictions_match_models_projection(self):
        rng = np.random.default_rng(13)
        dm = _random_unit_design(rng, 18, 7)
        y = rng.standard_normal(18)
        trace = fit_ogl(dm, y, Criterion("max"), 5)
        eval_cols = rng.standard_normal((6, 7))
        ks = [0, 2, 4, 99]
        preds = prefix_predictions(trace, eval_cols, ks)
        for k, pred in zip(ks, preds):
            model = trace.prefix_model(k)
            direct = (
                eval_cols[:, list(model.selected)] @ model.coefficients
                if model.sparsity
                else np.zeros(6)
            )
            np.testing.assert_array_equal(pred, direct)

    @pytest.mark.parametrize("additive", [False, True])
    def test_prefix_predictions_are_one_row_per_count(self, additive):
        rng = np.random.default_rng(17)
        dm = _random_unit_design(rng, 18, 7)
        dm = DesignMatrix(dm.columns, dm.column_norms, normalized=True)
        y = rng.standard_normal(18)
        trace = fit_pgl(dm, y, 9) if additive else fit_ogl(dm, y, Criterion("max"), 5)
        eval_cols = rng.standard_normal((6, 7))
        ks = [4, 0, 99, 2, 4, 1]
        block = prefix_predictions(trace, eval_cols, ks)
        assert block.shape == (len(ks), 6) and block.flags.c_contiguous
        for k, row in zip(ks, block):
            (alone,) = prefix_predictions(trace, eval_cols, [k])
            assert np.array_equal(row, alone)
        assert prefix_predictions(trace, eval_cols, []).shape == (0, 6)

    def test_prefix_predictions_match_models_additive(self):
        rng = np.random.default_rng(14)
        dm = _random_unit_design(rng, 15, 4)
        dm = DesignMatrix(dm.columns, dm.column_norms, normalized=True)
        y = rng.standard_normal(15)
        trace = fit_pgl(dm, y, 12)
        eval_cols = rng.standard_normal((5, 4))
        ks = [0, 1, 6, 12, 50]
        preds = prefix_predictions(trace, eval_cols, ks)
        for k, pred in zip(ks, preds):
            model = trace.prefix_model(k)
            direct = (
                eval_cols[:, list(model.selected)] @ model.coefficients
                if model.sparsity
                else np.zeros(5)
            )
            np.testing.assert_allclose(pred, direct, atol=1e-10)

    def test_k_sweep_from_one_trace_is_exact(self):
        # a low-rank RBF design: the trace outlives several factor regrowths
        train, _ = gen_sinc(120, 10, 0.1, np.random.default_rng(21))
        spec = build_rbf_uniform(40, -np.pi, np.pi, 1.0, np.random.default_rng(22))
        dm = normalize_columns(evaluate_design(spec, train.inputs))
        trace = fit_ogl(dm, train.targets, Criterion("max"), 40)
        assert trace.k_fitted > 16
        for k in range(1, trace.k_fitted + 1):
            alone = fit_ogl(dm, train.targets, Criterion("max"), k)
            assert np.array_equal(
                trace.prefix_model(k).coefficients, alone.prefix_model(alone.k_fitted).coefficients
            )

    def test_prefix_model_ignores_later_target_edits(self):
        rng = np.random.default_rng(23)
        dm = _random_unit_design(rng, 20, 6)
        y = rng.standard_normal(20)
        trace = fit_ogl(dm, y, Criterion("max"), 3)
        before = trace.prefix_model(trace.k_fitted).coefficients
        y[:] = 0.0
        assert np.array_equal(trace.prefix_model(trace.k_fitted).coefficients, before)

    def test_prefix_model_zero(self):
        rng = np.random.default_rng(15)
        dm = _random_unit_design(rng, 10, 3)
        trace = fit_ogl(dm, rng.standard_normal(10), Criterion("max"), 2)
        model = trace.prefix_model(0)
        assert model.sparsity == 0

    def test_fixed_k_reason(self):
        rng = np.random.default_rng(16)
        dm = _random_unit_design(rng, 10, 5)
        trace = fit_ogl(dm, rng.standard_normal(10), Criterion("max"), 2)
        assert trace.termination_reason == FIXED_K
        assert trace.k_fitted == 2
