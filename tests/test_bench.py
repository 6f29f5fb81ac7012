import dataclasses
import importlib
import os
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from greedyreg import algorithms, baselines, bench
from greedyreg.bench import (
    DEFAULT_DELTA_GRID,
    EmptyTable,
    ExperimentConfig,
    MethodSpec,
    emit_report,
    load_report,
    oracle_select,
    parse_method,
    render_report,
    report_row_from_line,
    sweep,
    time_fit,
)
from greedyreg.core import CONVERGED, MAX_ITER, FitReport


def _tiny_config(**overrides):
    base = dict(
        task="sinc",
        methods=[parse_method("ogl:max"), parse_method("dtogl:first")],
        seeds=[0],
        m_train=120,
        m_test=80,
        n=40,
        sigmas=[0.1],
        k_grid=list(range(0, 11)),
        delta_grid=[1e-4, 1e-2, 0.2],
        lambda_grid=[1e-4, 1e-2],
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestParseMethod:
    def test_plain(self):
        spec = parse_method("ogl:max")
        assert (spec.algorithm, spec.criterion, spec.param) == ("ogl", "max", None)

    def test_default_criteria(self):
        assert parse_method("ogl").criterion == "max"
        assert parse_method("dtogl").criterion == "first"
        assert parse_method("ridge").criterion is None

    def test_embedded_parameter(self):
        spec = parse_method("dtogl:first@1e-4")
        assert spec.param == pytest.approx(1e-4)
        assert parse_method("ridge@0.01").param == pytest.approx(0.01)

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            parse_method("boost:max")
        with pytest.raises(ValueError):
            parse_method("ridge:max")
        with pytest.raises(ValueError):
            MethodSpec("ogl", "first")  # first needs a threshold rule


class TestConfigValidation:
    def test_requires_methods(self):
        with pytest.raises(ValueError):
            ExperimentConfig(methods=[], seeds=[0]).validate()

    def test_requires_seeds(self):
        with pytest.raises(ValueError):
            _tiny_config(seeds=[]).validate()

    def test_requires_csv_path(self):
        with pytest.raises(ValueError):
            ExperimentConfig(
                task="csv", methods=[parse_method("ridge")], seeds=[0]
            ).validate()

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            _tiny_config(delta_grid=[]).validate()


class TestSweep:
    def test_singleton_grids_one_row_per_method(self):
        cfg = _tiny_config(
            methods=[parse_method("dtogl:first"), parse_method("ridge")],
            delta_grid=[1e-3],
            lambda_grid=[1e-3],
            seeds=[0],
            sigmas=[0.5],
        )
        rows = sweep(cfg)
        assert len(rows) == 2
        assert {r.method for r in rows} == {"dtogl:first", "ridge"}

    def test_row_count_is_grid_times_seeds_times_sigmas(self):
        cfg = _tiny_config(seeds=[0, 1], sigmas=[0.1, 1.0])
        rows = sweep(cfg)
        expected = (11 + 3) * 2 * 2  # (|k grid| + |delta grid|) x seeds x sigmas
        assert len(rows) == expected

    def test_rows_sorted_by_method_sigma_param_seed(self):
        cfg = _tiny_config(seeds=[1, 0], sigmas=[0.1, 0.5])
        rows = sweep(cfg)
        labels = [r.method for r in rows]
        assert labels == sorted(labels, key=labels.index)  # grouped by method
        ogl_rows = [r for r in rows if r.method == "ogl:max"]
        keys = [(r.sigma, r.parameter, r.seed) for r in ogl_rows]
        assert keys == sorted(keys)

    def test_failures_become_flagged_rows(self, monkeypatch):
        real_fit = algorithms.fit_delta_togl

        def fit_failing_at_half(dm, y, delta, *args):
            if delta == 0.5:
                raise ArithmeticError("injected")
            return real_fit(dm, y, delta, *args)

        monkeypatch.setattr(algorithms, "fit_delta_togl", fit_failing_at_half)
        cfg = _tiny_config(methods=[parse_method("dtogl:first")], delta_grid=[0.01, 0.5])
        rows = sweep(cfg)
        assert len(rows) == 2
        flagged = [r for r in rows if r.termination.startswith("error:")]
        assert len(flagged) == 1
        assert flagged[0].parameter == 0.5
        assert np.isinf(flagged[0].test_rmse)

    def test_flagged_row_explains_itself_on_stderr(self, monkeypatch, capsys):
        def fit_failing(*args):
            raise ArithmeticError("factor went singular")

        monkeypatch.setattr(algorithms, "fit_delta_togl", fit_failing)
        sweep(_tiny_config(methods=[parse_method("dtogl:first")], delta_grid=[0.25]))
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "flagged: dtogl:first param=0.25 sigma=0.1 seed=0: "
            "ArithmeticError: factor went singular"
        ]

    def test_bug_in_a_fit_propagates(self, monkeypatch):
        def fit_with_bug(*args):
            raise TypeError("not a numerical failure")

        monkeypatch.setattr(algorithms, "fit_ogl", fit_with_bug)
        with pytest.raises(TypeError, match="not a numerical failure"):
            sweep(_tiny_config(methods=[parse_method("ogl:max")]))

    def test_delta_sweep_shares_appends_without_changing_rows(self, monkeypatch):
        cfg = _tiny_config(
            methods=[parse_method("dtogl:first"), parse_method("togl:max")],
            delta_grid=[1e-4, 1e-3, 1e-2, 0.2],
        )
        appends = []
        real_append = algorithms.project_append
        monkeypatch.setattr(
            algorithms, "project_append", lambda *args: appends.append(1) or real_append(*args)
        )
        shared = sweep(cfg)
        shared_appends = len(appends)
        for name in ("fit_delta_togl", "fit_togl"):
            # the bench passes the run's tree last; drop it, so each fit makes its own
            alone_fit = lambda *args, _real=getattr(algorithms, name): _real(*args[:-1])
            monkeypatch.setattr(algorithms, name, alone_fit)
        appends.clear()
        alone = sweep(cfg)
        untimed = lambda rows: [dataclasses.replace(row, seconds=0.0) for row in rows]
        assert untimed(shared) == untimed(alone)
        assert shared_appends < len(appends)

    def test_max_fits_are_cut_from_one_path_per_cell(self, monkeypatch):
        cfg = _tiny_config(
            methods=[parse_method(m) for m in ("dtogl:max", "ogl:max", "pgl", "togl:max")],
            sigmas=[0.1, 1.0],
            delta_grid=[1e-6, 1e-3, 0.2],
        )
        appends = []
        real_append = algorithms.project_append
        monkeypatch.setattr(
            algorithms, "project_append", lambda *args: appends.append(1) or real_append(*args)
        )
        shared = sweep(cfg)
        shared_appends = len(appends)
        attempts = []  # per cell: the most any of its max fits makes alone
        for name in ("fit_ogl", "fit_togl", "fit_delta_togl"):
            # the bench passes the cell's path last; drop it, so each fit runs alone
            def alone_fit(*args, _real=getattr(algorithms, name)):
                trace = _real(*args[:-1])
                attempts.append((args[0], trace.iterations))
                return trace

            monkeypatch.setattr(algorithms, name, alone_fit)
        alone = sweep(cfg)
        untimed = lambda rows: [dataclasses.replace(row, seconds=0.0) for row in rows]
        assert untimed(shared) == untimed(alone)
        per_cell = {}
        for dm, count in attempts:
            per_cell[id(dm)] = max(per_cell.get(id(dm), 0), count)
        assert len(per_cell) == 2
        assert shared_appends == sum(per_cell.values())

    def test_a_large_delta_path_reader_makes_no_extra_attempt(self, monkeypatch):
        appends = []
        real_append = algorithms.project_append
        monkeypatch.setattr(
            algorithms, "project_append", lambda *args: appends.append(1) or real_append(*args)
        )
        cfg = _tiny_config(methods=[parse_method("dtogl:max")], delta_grid=[0.3])
        (row,) = sweep(cfg)
        assert len(appends) == row.iterations

    def test_delta_sweep_rows_carry_the_mean_fit_time(self, monkeypatch):
        # fits of a delta sweep share a tree, so each row reports the sweep's mean
        clocks = iter([1.0, 2.0, 3.0, 6.0])
        monkeypatch.setattr(bench, "time_fit", lambda thunk: (thunk(), next(clocks)))
        cfg = _tiny_config(
            methods=[parse_method("dtogl:first")], delta_grid=[1e-4, 1e-3, 1e-2, 0.2]
        )
        assert [row.seconds for row in sweep(cfg)] == [3.0] * 4

    def test_lasso_sweep_rows_carry_the_mean_fit_time(self, monkeypatch):
        # the first fista fit of a cell solves its whole grid; each row reports the mean
        clocks = iter([1.0, 2.0, 6.0])
        monkeypatch.setattr(bench, "time_fit", lambda thunk: (thunk(), next(clocks)))
        cfg = _tiny_config(methods=[parse_method("fista")], lambda_grid=[1e-4, 1e-2, 0.1])
        assert [row.seconds for row in sweep(cfg)] == [3.0] * 3

    def test_fista_fits_read_one_lasso_path_per_cell(self, monkeypatch):
        events = []
        real_solve = baselines.LassoPath._solve
        monkeypatch.setattr(
            baselines.LassoPath, "_solve", lambda path: events.append("solve") or real_solve(path)
        )
        real_fit = baselines.fit_fista

        def counted(*args, **kwargs):
            events.append((len(args), args[2], sorted(kwargs)))
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(baselines, "fit_fista", counted)
        grid = [1e-2, 1e-4, 0.1]
        cfg = _tiny_config(methods=[parse_method("fista")], lambda_grid=grid, seeds=[0, 1])
        shared = sweep(cfg)
        # per cell, (dm, y, lam) positional once per lambda; the first call solves the grid
        fits = [(3, lam, ["path"]) for lam in grid]
        assert events == [fits[0], "solve", *fits[1:]] * 2
        # the bench passes the path by keyword; drop it, so each fit solves alone
        monkeypatch.setattr(baselines, "fit_fista", lambda *args, **kwargs: real_fit(*args))
        alone = sweep(cfg)
        untimed = lambda rows: [dataclasses.replace(row, seconds=0.0) for row in rows]
        assert untimed(shared) == untimed(alone)

    def test_a_nonfinite_lasso_row_is_flagged_alone(self, monkeypatch):
        real_solve = baselines.LassoPath._solve

        def corrupting(path):
            fits = real_solve(path)
            coefficients, *rest = fits[1e-2]
            fits[1e-2] = (np.full_like(coefficients, np.inf), *rest)
            return fits

        monkeypatch.setattr(baselines.LassoPath, "_solve", corrupting)
        cfg = _tiny_config(methods=[parse_method("fista")], lambda_grid=[1e-4, 1e-2, 0.1])
        rows = sweep(cfg)
        assert [row.termination for row in rows][1] == "error:ValueError"
        assert all(row.termination in (CONVERGED, MAX_ITER) for row in rows[::2])

    def test_prefix_rows_share_fit_and_clamp(self):
        cfg = _tiny_config(methods=[parse_method("ogl:max")], k_grid=[0, 3, 9999])
        rows = sweep(cfg)
        assert len(rows) == 3
        by_param = {r.parameter: r for r in rows}
        assert by_param[0].sparsity == 0
        assert by_param[3].sparsity == 3
        # requested k beyond the fitted trace reuses the final prefix
        assert by_param[9999].sparsity <= 40
        assert len({r.seconds for r in rows}) == 1

    def test_metrics_finite_and_nonnegative(self):
        rows = sweep(_tiny_config(methods=[parse_method("pgl"), parse_method("fista")],
                                  k_grid=[0, 5, 10], lambda_grid=[1e-3]))
        for r in rows:
            assert np.isfinite(r.test_rmse) and r.test_rmse >= 0
            assert np.isfinite(r.train_rmse) and r.train_rmse >= 0
            assert r.sparsity >= 0 and r.iterations >= 0 and r.seconds >= 0

    def test_greedy_sparsity_bounded_by_iterations(self):
        rows = sweep(
            _tiny_config(
                methods=[
                    parse_method("ogl:max"),
                    parse_method("pgl"),
                    parse_method("dtogl:max"),
                    parse_method("togl:max"),
                ]
            )
        )
        for r in rows:
            assert r.sparsity <= max(r.iterations, 0) or r.iterations == 0

    def test_raw_atom_mode(self):
        cfg = _tiny_config(
            methods=[parse_method("ogl:max"), parse_method("dtogl:first")],
            normalize_atoms=False,
            k_grid=[0, 3, 6],
        )
        rows = sweep(cfg)
        assert len(rows) == 3 + 3
        assert all(np.isfinite(r.test_rmse) for r in rows)

    def test_materialization_flag_adds_time(self, monkeypatch):
        pause = 0.2
        real_design = bench.evaluate_design

        def slow_design(*args):
            time.sleep(pause)
            return real_design(*args)

        monkeypatch.setattr(bench, "evaluate_design", slow_design)
        for include in (True, False):
            cfg = _tiny_config(
                methods=[parse_method("dtogl:first")],
                delta_grid=[1e-3],
                include_materialization=include,
            )
            rows = sweep(cfg)
            assert len(rows) == 1
            assert (rows[0].seconds >= pause) == include

    def test_csv_task(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(60, 2))
        y = x[:, 0] ** 2 + 0.1 * rng.standard_normal(60)
        lines = ["a,b,y"] + [f"{a},{b},{t}" for (a, b), t in zip(x, y)]
        path = tmp_path / "toy.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = ExperimentConfig(
            task="csv",
            csv_path=str(path),
            methods=[parse_method("dtogl:first"), parse_method("ridge")],
            seeds=[0, 1],
            delta_grid=[1e-3, 0.1],
            lambda_grid=[1e-3],
        )
        rows = sweep(cfg)
        assert len(rows) == (2 + 1) * 2
        assert all(r.sigma is None for r in rows)
        assert all(np.isfinite(r.test_rmse) for r in rows)


class TestOracleSelect:
    def _row(self, method="m", sigma=0.1, param=1.0, seed=0, rmse_value=0.5, sparsity=3):
        return FitReport(method, param, sigma, seed, rmse_value, rmse_value, sparsity, sparsity, "fixed_k", 0.0)

    def test_single_row(self):
        rows = [self._row()]
        best = oracle_select(rows)
        assert len(best) == 1 and best[0].parameter == 1.0

    def test_argmin_over_grid(self):
        rows = [self._row(param=1.0, rmse_value=0.3), self._row(param=2.0, rmse_value=0.2)]
        assert oracle_select(rows)[0].parameter == 2.0

    def test_tie_prefers_smaller_parameter(self):
        rows = [self._row(param=2.0, rmse_value=0.2), self._row(param=1.0, rmse_value=0.2)]
        assert oracle_select(rows)[0].parameter == 1.0

    def test_tie_prefers_smaller_sparsity(self):
        rows = [
            self._row(param=1.0, rmse_value=0.2, sparsity=9),
            self._row(param=1.0, rmse_value=0.2, seed=1, sparsity=9),
            self._row(param=2.0, rmse_value=0.2, sparsity=3),
            self._row(param=2.0, rmse_value=0.2, seed=1, sparsity=3),
        ]
        # equal rmse and distinct params: smaller parameter wins the tie
        assert oracle_select(rows)[0].parameter == 1.0

    def test_mean_over_seeds(self):
        rows = [
            self._row(param=1.0, seed=0, rmse_value=0.1),
            self._row(param=1.0, seed=1, rmse_value=0.5),
            self._row(param=2.0, seed=0, rmse_value=0.25),
            self._row(param=2.0, seed=1, rmse_value=0.25),
        ]
        best = oracle_select(rows)[0]
        assert best.parameter == 2.0
        assert best.mean_test_rmse == pytest.approx(0.25)

    def test_empty_table(self):
        with pytest.raises(EmptyTable):
            oracle_select([])


class TestRowsAsArrays:
    """The report's array arithmetic keeps the bits of its one-row forms."""

    @pytest.mark.filterwarnings("error")
    def test_grouped_statistics_match_per_group_numpy(self):
        # sizes 8 and up take NumPy's pairwise sum; each group is its own method
        rng = np.random.default_rng(5)
        rows, expected = [], {}
        for size in (1, 2, 7, 8, 10, 130):
            for group in range(20):
                method = f"m{size}-{group}"
                test = rng.uniform(0.0, 2.0, size) * 10.0 ** rng.integers(-3, 3)
                if group == 0:
                    test[size // 2] = np.inf
                train = rng.uniform(0.0, 1.0, size)
                sparsity = rng.integers(0, 300, size).tolist()
                seconds = rng.exponential(0.01, size)
                for seed in range(size):
                    rows.append(FitReport(method, 1.0, 0.5, seed, float(test[seed]),
                                          float(train[seed]), sparsity[seed], 1, "fixed_k",
                                          float(seconds[seed])))
                if not np.isfinite(test).all():
                    se = np.inf
                elif size < 2:
                    se = 0.0
                else:
                    se = float(np.std(test, ddof=1) / np.sqrt(size))
                expected[method] = (
                    float(np.mean(test)), se, float(np.mean(train)), float(np.mean(sparsity)),
                    float(np.mean(seconds)),
                )
        got = {
            s.method: (s.mean_test_rmse, s.se_test_rmse, s.mean_train_rmse, s.mean_sparsity,
                       s.mean_seconds)
            for s in oracle_select(rows)
        }
        assert got == expected
        assert sum(value[1] == np.inf for value in got.values()) == 6

    def test_block_rmse_matches_rmse_per_row(self):
        from greedyreg.linalg import rmse, truncate_values

        rng = np.random.default_rng(6)
        y_test = rng.standard_normal(500)
        block = 2.0 * rng.standard_normal((301, 500))  # some entries beyond the bound
        cell = bench._Cell(None, None, None, 1.0, y_test, 1.5, 1.0, 0.0)
        run = bench._Run(parse_method("ogl:max"), cell, 0.5, 0)
        expected = [rmse(truncate_values(pred, 1.5), y_test) for pred in block]
        assert run.test_rmses(block.copy()) == expected


class TestProtocolRecord:
    """tools/protocol.py counts each piece of fit work once in a method's fit_s."""

    def test_max_cuts_count_the_path_clock_once_per_cell(self, monkeypatch):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        monkeypatch.setattr(os, "environ", dict(os.environ))  # it pins BLAS threads on import
        monkeypatch.syspath_prepend(os.path.join(root, "tools"))
        protocol = importlib.import_module("protocol")

        def row(method, param, seed, seconds):
            return FitReport(method, param, 0.1, seed, 0.1, 0.1, 3, 3, "fixed_k", seconds)

        rows = []
        for method in ("togl:max", "dtogl:max"):
            # each cut carries the path's clock where it stops
            rows += [row(method, 1e-3, 0, 0.5), row(method, 0.1, 0, 0.25),
                     row(method, 1e-3, 1, 0.75), row(method, 0.1, 1, 0.125)]
        # a k-sweep: every row carries its one fit's time
        rows += [row("ogl:max", k, seed, seconds) for seed, seconds in ((0, 0.5), (1, 0.25))
                 for k in range(3)]
        # a FitTree sweep: every row carries the sweep's mean
        rows += [row("dtogl:first", delta, seed, 0.125) for seed in (0, 1) for delta in (1e-3, 0.1)]
        methods = protocol.per_method(rows)
        assert {method: stats["fit_s"] for method, stats in methods.items()} == {
            "dtogl:first": 0.5, "dtogl:max": 1.25, "ogl:max": 0.75, "togl:max": 1.25,
        }
        assert methods["ogl:max"]["rows"] == 6 and methods["dtogl:max"]["iterations"] == 12


class TestUncertifiedPicks:
    """An aggregate pick whose rows include max_iter fits is named on stderr, once."""

    @staticmethod
    def _rows(pick_termination):
        rows = []
        for sigma, pick_rmse in ((0.1, 0.1), (1.0, 0.9)):
            for seed in (0, 1):
                # at sigma=0.1 the small lambda wins, at sigma=1 the large one
                rows.append(FitReport("fista", 1e-4, sigma, seed, pick_rmse, 0.1, 9, 10000,
                                      pick_termination, 0.0))
                rows.append(FitReport("fista", 1e-2, sigma, seed, 0.5, 0.4, 3, 40, CONVERGED, 0.0))
                rows.append(FitReport("ridge", 1e-2, sigma, seed, 0.3, 0.2, 40, 40, "fixed_k", 0.0))
        return rows

    def test_one_line_per_uncertified_pick(self, capsys):
        render_report(self._rows(MAX_ITER), timing=False)
        err = capsys.readouterr().err.splitlines()
        assert err == ["uncertified: fista sigma=0.1 param=0.0001: 2 of its rows ended max_iter"]
        best = {(s.method, s.sigma): s.max_iter_rows for s in oracle_select(self._rows(MAX_ITER))}
        assert best == {("fista", 0.1): 2, ("fista", 1.0): 0, ("ridge", 0.1): 0, ("ridge", 1.0): 0}

    def test_report_text_does_not_change(self, capsys):
        uncertified = render_report(self._rows(MAX_ITER), timing=False)
        certified = render_report(self._rows(CONVERGED), timing=False)
        capsys.readouterr()
        assert uncertified.replace(MAX_ITER, CONVERGED) == certified
        render_report(self._rows(CONVERGED), timing=False)
        assert capsys.readouterr().err == ""


class TestCellMemory:
    """One cell's matrices live at a time, each built without design-sized copies."""

    def test_earlier_cells_are_freed_before_the_next_is_prepared(self, monkeypatch):
        prepare, designs, alive = bench._prepare_cell, [], []

        def watched(*args):
            alive.append([ref() is not None for ref in designs])
            cell = prepare(*args)
            designs.append(weakref.ref(cell.dm_fit))
            return cell

        monkeypatch.setattr(bench, "_prepare_cell", watched)
        methods = [parse_method(m) for m in ("ogl:max", "dtogl:max", "dtogl:first", "ridge")]
        sweep(_tiny_config(methods=methods, seeds=[0, 1], sigmas=[0.1, 1.0]))
        assert alive == [[], [False], [False] * 2, [False] * 3]

    def test_prepare_cell_peak_within_three_designs(self):
        cfg = _tiny_config(m_train=400, m_test=400, n=500)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cell = bench._prepare_cell(cfg, None, 0, 0)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        design_bytes = cell.dm_fit.columns.nbytes
        assert design_bytes == 400 * 500 * 8
        assert peak <= 3 * design_bytes, peak / design_bytes


def test_time_fit_noop_under_a_millisecond():
    _, seconds = time_fit(lambda: None)
    assert seconds < 1e-3


class TestReports:
    def test_csv_layout(self, tmp_path):
        rows = sweep(_tiny_config(methods=[parse_method("dtogl:first")], delta_grid=[1e-3]))
        path = tmp_path / "out.csv"
        emit_report(rows, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "method,param,sigma,seed,test_rmse,train_rmse,sparsity,iterations,termination,seconds"
        assert len([l for l in lines if l.startswith("#aggregate")]) == 2
        assert lines[1].startswith("dtogl:first,0.001,0.1,0,")

    def test_markdown_layout(self):
        rows = sweep(_tiny_config(methods=[parse_method("dtogl:first")], delta_grid=[1e-3]))
        text = render_report(rows, fmt="markdown")
        assert text.startswith("| method | param | sigma |")
        assert "|---|" in text

    def test_round_trip_rows(self, tmp_path):
        rows = sweep(_tiny_config())
        path = tmp_path / "rt.csv"
        emit_report(rows, path)
        assert load_report(path) == rows

    def test_rerun_bytes_identical_without_timing(self):
        cfg = _tiny_config(methods=[parse_method("ogl:rand"), parse_method("dtogl:first")])
        text_a = render_report(sweep(cfg), timing=False)
        text_b = render_report(sweep(cfg), timing=False)
        assert text_a == text_b

    def test_io_error(self, tmp_path):
        rows = sweep(_tiny_config(methods=[parse_method("dtogl:first")], delta_grid=[1e-3]))
        with pytest.raises(OSError):
            emit_report(rows, tmp_path / "no" / "such" / "dir" / "x.csv")

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError):
            report_row_from_line("too,few,fields")


def test_delta_sweep_less_sensitive_than_k_sweep():
    """Interquartile spread of the adaptive-threshold sweep stays tighter
    than the k-sweep's over its 1..50 range at sigma = 0.5."""
    cfg = ExperimentConfig(
        task="sinc",
        methods=[parse_method("ogl:max"), parse_method("dtogl:max")],
        seeds=[0],
        m_train=400,
        m_test=400,
        n=150,
        sigmas=[0.5],
        k_grid=list(range(1, 51)),
        delta_grid=list(np.geomspace(*DEFAULT_DELTA_GRID)),
    )
    rows = sweep(cfg)

    def iqr(values):
        return float(np.percentile(values, 75) - np.percentile(values, 25))

    ogl = [r.test_rmse for r in rows if r.method == "ogl:max"]
    dtogl = [r.test_rmse for r in rows if r.method == "dtogl:max"]
    assert iqr(dtogl) < iqr(ogl)
