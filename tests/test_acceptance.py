"""Acceptance suite: eight exit criteria, one test per criterion.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one summary
line per criterion; expensive sweeps are shared through session-scoped
fixtures.  Scales follow the benchmark protocol: 1000 train / 1000 test
samples, 300 uniform RBF centers of width 1, noise levels
{0.1, 0.5, 1, 2}, ten seeds.
"""

import time

import numpy as np
import pytest

from oracles import coordinate_descent_lasso, naive_omp

from greedyreg import algorithms
from greedyreg.algorithms import fit_delta_togl, fit_ogl, prefix_predictions
from greedyreg.baselines import fit_fista, fit_ridge, lasso_objective
from greedyreg.bench import (
    ExperimentConfig,
    oracle_select,
    parse_method,
    render_report,
    sweep,
)
from greedyreg.core import DesignMatrix, FitReport
from greedyreg.data import gen_sinc
from greedyreg.dictionary import (
    build_rbf_uniform,
    evaluate_atoms,
    evaluate_design,
    normalize_columns,
)
from greedyreg.greedy import Criterion
from greedyreg.linalg import (
    ProjectionState,
    empirical_norm,
    project_append,
    rmse,
    solve_coefficients,
    truncate_values,
)

SIGMAS = [0.1, 0.5, 1.0, 2.0]
SEEDS = list(range(10))


def _report(number, ok, detail):
    print(f"\nACCEPTANCE CRITERION {number}: {'PASS' if ok else 'FAIL'} | {detail}")


def _sinc_config(methods, **overrides):
    base = dict(
        task="sinc",
        methods=[parse_method(m) for m in methods],
        seeds=SEEDS,
        m_train=1000,
        m_test=1000,
        n=300,
        sigmas=SIGMAS,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _oracle_map(rows):
    return {(s.method, s.sigma): s for s in oracle_select(rows)}


@pytest.fixture(scope="session")
def ogl_max_sweep():
    start = time.perf_counter()
    rows = sweep(_sinc_config(["ogl:max"]))
    return rows, time.perf_counter() - start


@pytest.fixture(scope="session")
def ogl_variant_rows():
    return sweep(_sinc_config(["ogl:max2", "ogl:max3", "ogl:rand"]))


@pytest.fixture(scope="session")
def dtogl_rows():
    return sweep(_sinc_config(["dtogl:max", "dtogl:first"]))


def test_criterion_1_sinc_benchmark_regime(ogl_max_sweep):
    rows, elapsed = ogl_max_sweep
    oracle = _oracle_map(rows)
    low = oracle[("ogl:max", 0.1)]
    high = oracle[("ogl:max", 2.0)]
    checks = {
        "sigma 0.1 rmse in [0.015, 0.04]": 0.015 <= low.mean_test_rmse <= 0.04,
        "sigma 2.0 rmse in [0.10, 0.20]": 0.10 <= high.mean_test_rmse <= 0.20,
        "k* in [5, 15] at every sigma": all(
            5 <= oracle[("ogl:max", s)].parameter <= 15 for s in SIGMAS
        ),
        "under 2 minutes": elapsed < 120.0,
    }
    detail = (
        f"rmse(0.1)={low.mean_test_rmse:.4f}, rmse(2)={high.mean_test_rmse:.4f}, "
        f"k*={[oracle[('ogl:max', s)].parameter for s in SIGMAS]}, {elapsed:.1f}s"
    )
    _report(1, all(checks.values()), detail)
    failed = [name for name, ok in checks.items() if not ok]
    assert not failed, f"failed: {failed}; {detail}"


def test_criterion_2_criterion_equivalence(ogl_max_sweep, ogl_variant_rows):
    oracle = _oracle_map(ogl_max_sweep[0] + ogl_variant_rows)
    ranked = ("ogl:max", "ogl:max2", "ogl:max3")
    pairwise_ok = True
    for sigma in SIGMAS:
        values = [oracle[(m, sigma)].mean_test_rmse for m in ranked]
        pairwise_ok &= max(values) <= 1.15 * min(values)
    random_worse = all(
        oracle[("ogl:rand", s)].mean_test_rmse > oracle[("ogl:max", s)].mean_test_rmse
        for s in (0.5, 1.0)
    )
    detail = "; ".join(
        f"sigma={s}: " + "/".join(f"{oracle[(m, s)].mean_test_rmse:.4f}" for m in ranked)
        + f" rand={oracle[('ogl:rand', s)].mean_test_rmse:.4f}"
        for s in SIGMAS
    )
    _report(2, pairwise_ok and random_worse, detail)
    assert pairwise_ok, f"ranked criteria differ by more than 15%: {detail}"
    assert random_worse, f"random selection not strictly worse: {detail}"


def test_criterion_3_delta_togl_adequacy(ogl_max_sweep, dtogl_rows):
    oracle = _oracle_map(ogl_max_sweep[0] + dtogl_rows)
    ratio_ok, sparsity_ok = True, True
    details = []
    for method in ("dtogl:max", "dtogl:first"):
        for sigma in SIGMAS:
            ours = oracle[(method, sigma)]
            ref = oracle[("ogl:max", sigma)].mean_test_rmse
            ratio = ours.mean_test_rmse / ref
            ratio_ok &= abs(ratio - 1.0) <= 0.25
            sparsity_ok &= 4.0 <= ours.mean_sparsity <= 16.0
            details.append(f"{method}@{sigma}: ratio={ratio:.3f} sp={ours.mean_sparsity:.1f}")
    detail = "; ".join(details)
    _report(3, ratio_ok and sparsity_ok, detail)
    assert ratio_ok, f"adaptive fits stray beyond 25% of the plain oracle: {detail}"
    assert sparsity_ok, f"oracle sparsity outside [4, 16]: {detail}"


def total_fit_seconds(rows, method_label: str) -> float:
    """Total fitting time a method spent across its sweep.

    k-sweep methods (ogl, pgl) derive all their grid rows from one fit
    per (sigma, seed), so their per-row seconds are shared; per-parameter
    methods pay one fit per row.
    """
    mine = [r for r in rows if r.method == method_label]
    algorithm = method_label.split(":", 1)[0]
    if algorithm in ("ogl", "pgl"):
        per_cell = {}
        for r in mine:
            per_cell[(r.sigma, r.seed)] = r.seconds
        return float(sum(per_cell.values()))
    return float(sum(r.seconds for r in mine))


def test_total_fit_seconds_accounting():
    mk = lambda method, param, seed, seconds: FitReport(
        method, param, 0.1, seed, 0.1, 0.1, 1, 1, "fixed_k", seconds
    )
    rows = [
        mk("ogl:max", 1, 0, 2.0),
        mk("ogl:max", 2, 0, 2.0),  # same fit, same cell
        mk("ogl:max", 1, 1, 3.0),
        mk("dtogl:first", 0.1, 0, 1.0),
        mk("dtogl:first", 0.2, 0, 1.5),
    ]
    assert total_fit_seconds(rows, "ogl:max") == pytest.approx(5.0)
    assert total_fit_seconds(rows, "dtogl:first") == pytest.approx(2.5)


def test_criterion_4_speed_direction_large_dictionary():
    cfg = ExperimentConfig(
        task="sinc",
        methods=[parse_method(m) for m in ("ogl:max", "dtogl:first", "ridge")],
        seeds=[0, 1],
        m_train=1000,
        m_test=1000,
        n=2000,
        sigmas=[0.1],
        lambda_grid=[1e-5, 1e-3, 1e-1],
    )
    rows = sweep(cfg)
    t_full = total_fit_seconds(rows, "ogl:max")
    t_scan = total_fit_seconds(rows, "dtogl:first")
    oracle = _oracle_map(rows)
    scan_sparsity = oracle[("dtogl:first", 0.1)].mean_sparsity
    ridge_sparsity = oracle[("ridge", 0.1)].mean_sparsity
    checks = {
        "scan sweep < 0.25 x full sweep": t_scan < 0.25 * t_full,
        "scan sparsity <= 16": scan_sparsity <= 16.0,
        "ridge sparsity == 2000": ridge_sparsity == 2000.0,
    }
    detail = (
        f"t_scan={t_scan:.2f}s t_full={t_full:.2f}s ratio={t_scan / t_full:.3f}, "
        f"scan sparsity={scan_sparsity:.1f}, ridge sparsity={ridge_sparsity:.0f}"
    )
    _report(4, all(checks.values()), detail)
    failed = [name for name, ok in checks.items() if not ok]
    assert not failed, f"failed: {failed}; {detail}"


def test_criterion_4_atoms_scanned_large_dictionary(monkeypatch):
    """Criterion 4's cells, counted instead of timed: every dtogl:first fit on
    the default delta grid computes under a quarter of the atom-residual
    correlations that the cell's ogl:max fit computes."""
    scanned = []  # (fit name, atoms scanned) in sweep order: per cell, ogl then dtogl
    for name in ("fit_ogl", "fit_delta_togl"):

        def counted(*args, _fit=getattr(algorithms, name), _name=name, **kwargs):
            trace = _fit(*args, **kwargs)
            scanned.append((_name, trace.atoms_scanned))
            return trace

        monkeypatch.setattr(algorithms, name, counted)
    cfg = ExperimentConfig(
        task="sinc",
        methods=[parse_method(m) for m in ("ogl:max", "dtogl:first")],
        seeds=[0, 1],
        m_train=1000,
        m_test=1000,
        n=2000,
        sigmas=[0.1],
    )
    sweep(cfg)
    cells = []
    for name, count in scanned:
        if name == "fit_ogl":
            cells.append((count, []))
        else:
            cells[-1][1].append(count)
    ok = len(cells) == 2 and all(
        len(scans) == 50 and max(scans) < 0.25 * full for full, scans in cells
    )
    detail = "; ".join(f"ogl:max {full}, dtogl:first max {max(scans)}" for full, scans in cells)
    _report("4 (atoms scanned)", ok, detail)
    assert ok, detail


def test_criterion_5_atom_count_bound():
    deltas = [0.05, 0.1, 0.2, 0.4]
    counts = {d: [] for d in deltas}
    for seed in range(20):
        rng = np.random.default_rng(seed)
        train, _ = gen_sinc(400, 10, 0.1, rng)
        spec = build_rbf_uniform(150, -np.pi, np.pi, 1.0, np.random.default_rng(seed + 1000))
        dm = normalize_columns(evaluate_design(spec, train.inputs))
        for d in deltas:
            counts[d].append(fit_delta_togl(dm, train.targets, d, "max").k_fitted)

    def bound_shape(d):
        return d**-2 * np.log(1.0 / d)

    # single constant calibrated at the largest threshold
    constant = max(counts[0.4]) / bound_shape(0.4)
    violations = [
        (d, c)
        for d in deltas
        for c in counts[d]
        if c > constant * bound_shape(d)
    ]
    detail = (
        f"C={constant:.3f}; max counts="
        + ", ".join(f"{d}:{max(counts[d])}<={constant * bound_shape(d):.1f}" for d in deltas)
    )
    _report(5, not violations, detail)
    assert not violations, f"bound violated at {violations}; {detail}"


def test_criterion_6_oracle_equivalences():
    failures = []

    # orthogonal greedy vs naive re-solving pursuit, 50 instances, 1e-7
    rng = np.random.default_rng(123)
    for trial in range(50):
        m = int(rng.integers(8, 31))
        n = int(rng.integers(3, 11))
        k = min(m, n, int(rng.integers(2, 6)))
        cols = rng.standard_normal((m, n))
        cols /= np.sqrt(np.mean(cols**2, axis=0))
        dm = DesignMatrix.from_columns(cols)
        y = rng.standard_normal(m)
        trace = fit_ogl(dm, y, Criterion("max"), k)
        ref_sel, ref_pref = naive_omp(cols, y, trace.k_fitted)
        if trace.selected != ref_sel:
            failures.append(f"omp selection trial {trial}")
        elif any(
            np.max(np.abs(trace.prefix_model(k).coefficients - b)) > 1e-7
            for k, b in enumerate(ref_pref, 1)
        ):
            failures.append(f"omp coefficients trial {trial}")

    # projection solve vs dense normal equations, 1e-8
    rng = np.random.default_rng(7)
    for trial in range(50):
        m = int(rng.integers(6, 21))
        k = int(rng.integers(1, 6))
        g = rng.standard_normal((m, k))
        y = rng.standard_normal(m)
        state = ProjectionState(y)
        for j in range(k):
            project_append(state, g[:, j])
        (coef,) = solve_coefficients(state)
        oracle = np.linalg.solve(g.T @ g, g.T @ y)
        scale = max(1.0, float(np.max(np.abs(oracle))))
        if np.max(np.abs(coef - oracle)) / scale > 1e-8:
            failures.append(f"normal equations trial {trial}")

    # shrinkage solver objective vs coordinate descent, 20 instances, 1e-6
    for trial in range(20):
        r = np.random.default_rng(trial)
        dm = DesignMatrix.from_columns(r.standard_normal((20, 8)))
        y = r.standard_normal(20)
        lam = float(r.uniform(0.01, 0.3))
        model = fit_fista(dm, y, lam, max_iter=20000, tol=1e-14)
        cd = coordinate_descent_lasso(dm.columns, y, lam)
        gap = abs(
            lasso_objective(dm, y, model.coefficients, lam)
            - lasso_objective(dm, y, cd, lam)
        )
        if gap > 1e-6:
            failures.append(f"fista objective trial {trial} gap {gap:.2e}")

    # ridge stationarity, 1e-6 x (1 + ||y||_m)
    for trial in range(20):
        r = np.random.default_rng(trial + 500)
        dm = DesignMatrix.from_columns(r.standard_normal((15, 6)))
        y = r.standard_normal(15)
        lam = float(r.uniform(1e-4, 1.0))
        model = fit_ridge(dm, y, lam)
        grad = -2.0 * dm.columns.T @ (y - dm.columns @ model.coefficients) / dm.m
        grad += 2.0 * lam * model.coefficients
        if np.linalg.norm(grad) > 1e-6 * (1.0 + empirical_norm(y)):
            failures.append(f"ridge gradient trial {trial}")

    _report(6, not failures, f"{len(failures)} failures" if failures else "all equivalences hold")
    assert not failures, failures


def test_criterion_7_invariant_suites():
    failures = []

    # one representative benchmark cell per noise level
    for sigma in SIGMAS:
        rng = np.random.default_rng([5, 11, 0])
        train, test = gen_sinc(600, 600, sigma, rng)
        spec = build_rbf_uniform(200, -np.pi, np.pi, 1.0, np.random.default_rng([5, 13, 0]))
        dm = normalize_columns(evaluate_design(spec, train.inputs))
        y = train.targets
        bound = float(np.max(np.abs(y)))

        trace = fit_ogl(dm, y, Criterion("max"), 40)

        # projection orthogonality <= 1e-8 after replaying the selection
        state = ProjectionState(y)
        for idx in trace.selected:
            project_append(state, dm.columns[:, idx])
        q = state._q[:, : state.k]
        gram_err = np.max(np.abs(q.T @ q / state.m - np.eye(state.k)))
        res_err = np.max(np.abs(q.T @ state.residual / state.m))
        if gram_err > 1e-8 or res_err > 1e-8:
            failures.append(f"orthogonality sigma={sigma}: {gram_err:.2e}/{res_err:.2e}")

        # residual monotonicity
        norms = np.array([empirical_norm(y)] + trace.residual_norms)
        if not np.all(np.diff(norms) <= 1e-10):
            failures.append(f"residual monotonicity sigma={sigma}")

        # truncation inequality on the benchmark predictions
        test_cols = evaluate_atoms(spec, test.inputs)
        preds = prefix_predictions(trace, test_cols, [trace.k_fitted])[trace.k_fitted]
        clipped = truncate_values(preds, bound)
        in_band = np.abs(test.targets) <= bound
        per_sample_ok = np.all(
            np.abs(clipped - test.targets)[in_band]
            <= np.abs(preds - test.targets)[in_band] + 1e-15
        )
        if not per_sample_ok or rmse(clipped[in_band], test.targets[in_band]) > rmse(
            preds[in_band], test.targets[in_band]
        ) + 1e-15:
            failures.append(f"truncation inequality sigma={sigma}")

        # threshold consistency and nesting of the adaptive fits
        fits = {}
        for delta in (0.02, 0.1, 0.3):
            t = fit_delta_togl(dm, y, delta, "max")
            fits[delta] = t
            if any(c <= delta for c in t.selected_correlations):
                failures.append(f"threshold consistency sigma={sigma} delta={delta}")
        for big, small in ((0.3, 0.1), (0.1, 0.02)):
            k = fits[big].k_fitted
            if fits[small].selected[:k] != fits[big].selected:
                failures.append(f"delta nesting sigma={sigma} {big}->{small}")

    # byte-identical reruns under fixed seeds (timing suppressed)
    cfg = ExperimentConfig(
        task="sinc",
        methods=[parse_method("ogl:rand"), parse_method("dtogl:first")],
        seeds=[0, 1],
        m_train=150,
        m_test=100,
        n=50,
        sigmas=[0.5],
        k_grid=list(range(0, 13)),
        delta_grid=[1e-4, 1e-2, 0.2],
    )
    if render_report(sweep(cfg), timing=False) != render_report(sweep(cfg), timing=False):
        failures.append("rerun bytes differ")

    _report(7, not failures, f"{len(failures)} failures" if failures else "all invariants hold")
    assert not failures, failures


def test_criterion_8_error_shrinks_with_sample_size():
    means = []
    for m_train in (250, 500, 1000, 2000):
        cfg = _sinc_config(
            ["ogl:max"], seeds=[0, 1, 2], m_train=m_train, sigmas=[0.5]
        )
        summary = oracle_select(sweep(cfg))[0]
        means.append(summary.mean_test_rmse)
    nonincreasing = all(b <= a for a, b in zip(means, means[1:]))
    detail = " -> ".join(f"{v:.4f}" for v in means)
    _report(8, nonincreasing, f"oracle rmse by m: {detail}")
    assert nonincreasing, f"trend not monotone: {detail}"
