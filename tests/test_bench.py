import dataclasses
import time

import numpy as np
import pytest

from greedyreg import algorithms, bench
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
from greedyreg.core import FitReport


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
