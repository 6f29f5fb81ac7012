import os
import subprocess
import sys

import numpy as np
import pytest

from greedyreg import cli
from greedyreg.cli import main


def _bench_args(out, extra=()):
    return [
        "bench",
        "sinc",
        "--m-train", "100",
        "--m-test", "60",
        "--n", "30",
        "--sigma", "0.1",
        "--methods", "dtogl:first",
        "--delta-grid", "1e-4:0.2:3",
        "--seeds", "1",
        "--out", str(out),
        *extra,
    ]


class TestBenchCommand:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(_bench_args(out)) == 0
        text = out.read_text(encoding="utf-8")
        assert text.startswith("method,param,sigma,seed,")
        assert "dtogl:first" in text
        assert "wrote 3 rows" in capsys.readouterr().out

    def test_missing_methods_is_config_error(self, tmp_path, capsys):
        code = main(["bench", "sinc", "--sigma", "0.1", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_grid_is_config_error(self, tmp_path, capsys):
        code = main(_bench_args(tmp_path / "x.csv") + ["--delta-grid", "5:1:3"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_no_timing_reruns_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(_bench_args(out_a, ["--no-timing"])) == 0
        assert main(_bench_args(out_b, ["--no-timing"])) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_config_file_supplies_flags(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "m-train=100\nm-test=60\nn=30\nsigma=0.1\n"
            "methods=dtogl:first\ndelta-grid=1e-4:0.2:3\nseeds=1\n",
            encoding="utf-8",
        )
        out = tmp_path / "cfg.csv"
        code = main(["bench", "sinc", "--config", str(config), "--out", str(out)])
        assert code == 0
        assert out.exists()

    def test_flags_override_config_file(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("methods=ridge\nsigma=0.1\n", encoding="utf-8")
        out = tmp_path / "o.csv"
        code = main(
            ["bench", "sinc", "--config", str(config), "--m-train", "80",
             "--m-test", "40", "--n", "20", "--methods", "dtogl:first",
             "--delta-grid", "1e-3:0.1:2", "--seeds", "1", "--out", str(out)]
        )
        assert code == 0
        assert "dtogl:first" in out.read_text(encoding="utf-8")

    def test_csv_task(self, tmp_path):
        rng = np.random.default_rng(1)
        rows = ["x0,x1,y"] + [
            f"{a},{b},{a + b}" for a, b in rng.uniform(-1, 1, size=(40, 2))
        ]
        data = tmp_path / "d.csv"
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "res.csv"
        code = main(
            ["bench", "csv", "--path", str(data), "--target", "last",
             "--methods", "ridge", "--lambda-grid", "1e-4:1:3",
             "--seeds", "2", "--out", str(out)]
        )
        assert code == 0
        assert len([l for l in out.read_text().splitlines() if l.startswith("ridge")]) == 6


    @pytest.mark.parametrize(
        "line, key",
        [("method=dtogl:first", "method"), ("no-timing=1", "no_timing")],
    )
    def test_config_file_rejects_unknown_key(self, tmp_path, capsys, line, key):
        config = tmp_path / "run.cfg"
        config.write_text(f"sigma=0.1\n{line}\n", encoding="utf-8")
        code = main(_bench_args(tmp_path / "x.csv") + ["--config", str(config)])
        assert code == 1
        assert f"run.cfg:2: unknown key '{key}'" in capsys.readouterr().err

    def test_pinned_parameter_rejected(self, tmp_path, capsys):
        code = main(_bench_args(tmp_path / "x.csv") + ["--methods", "ridge@0.01"])
        assert code == 1
        assert "--lambda-grid" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("sigma", ["inf", "nan"])
    def test_non_finite_sigma_fails(self, tmp_path, capsys, sigma):
        code = main(_bench_args(tmp_path / "x.csv") + ["--sigma", sigma])
        assert code == 1
        assert "sigma must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad_row, message",
        [("0.5,0.1,nan", "target"), ("0.5,0.1,inf", "target"), ("nan,0.1,0.2", "input")],
    )
    def test_non_finite_csv_fails(self, tmp_path, capsys, bad_row, message):
        rows = ["x0,x1,y"] + [f"{i / 10},{i / 20},{i / 5}" for i in range(10)] + [bad_row]
        data = tmp_path / "d.csv"
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code = main(
            ["bench", "csv", "--path", str(data), "--methods", "ridge",
             "--lambda-grid", "1e-3:1e-1:2", "--out", str(tmp_path / "res.csv")]
        )
        assert code == 1
        assert f"non-finite {message} entry" in capsys.readouterr().err

    def test_eta_is_honoured(self, tmp_path, capsys):
        sizes = ["--m-train", "100", "--m-test", "60", "--n", "30", "--sigma", "0.1"]
        out = tmp_path / "eta.csv"
        code = main(
            ["bench", "sinc", *sizes, "--eta", "3", "--methods", "ogl:max",
             "--k-grid", "5", "--seeds", "0,", "--out", str(out)]
        )
        assert code == 0
        row = next(l for l in out.read_text().splitlines() if l.startswith("ogl:max,5,"))
        bench_rmse = float(row.split(",")[4])
        capsys.readouterr()
        assert main(["fit", "--method", "ogl:max@5", *sizes, "--eta", "3", "--seed", "0"]) == 0
        fit_lines = capsys.readouterr().out.splitlines()
        fit_rmse = float(next(l for l in fit_lines if l.startswith("test_rmse:")).split()[1])
        assert bench_rmse == fit_rmse

    def test_pgl_with_raw_atoms_fails(self, tmp_path, capsys):
        code = main(_bench_args(tmp_path / "x.csv") + ["--methods", "pgl", "--raw-atoms"])
        assert code == 1
        assert "--raw-atoms" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_config_file_bad_format_fails_before_sweep(self, tmp_path, capsys, monkeypatch):
        def no_sweep(config):
            raise AssertionError("sweep ran")

        monkeypatch.setattr(cli, "sweep", no_sweep)
        config = tmp_path / "run.cfg"
        config.write_text("format=html\n", encoding="utf-8")
        code = main(_bench_args(tmp_path / "x.csv") + ["--config", str(config)])
        assert code == 1
        assert "unknown format 'html'" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "extra, grid",
        [
            (["--delta-grid", "1e-3:2:3"], "delta_grid"),
            (["--methods", "ogl:max", "--k-grid=-2,0,3"], "k_grid"),
            (["--methods", "ogl:max", "--k-grid", "2.5"], "k_grid"),
        ],
    )
    def test_out_of_range_grid_fails(self, tmp_path, capsys, extra, grid):
        code = main(_bench_args(tmp_path / "x.csv") + extra)
        assert code == 1
        assert f"error: {grid} values must be" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_dense_rows_say_why_they_stopped(self, capsys):
        code = main(
            ["bench", "sinc", "--m-train", "100", "--m-test", "60", "--n", "30",
             "--sigma", "0.1", "--methods", "ridge,fista", "--lambda-grid", "1e-6:1e-1:4",
             "--seeds", "2", "--no-timing"]
        )
        assert code == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        terminations = {(row[0], row[8]) for row in rows if not row[0].startswith("#")}
        assert {method for method, _ in terminations} == {"ridge", "fista"}
        for method, termination in terminations:
            assert termination in (("fixed_k",) if method == "ridge" else ("converged", "max_iter"))


class TestFitCommand:
    def test_prints_report_fields(self, capsys):
        code = main(
            ["fit", "--method", "dtogl:first@1e-3", "--m-train", "100",
             "--m-test", "50", "--n", "30", "--sigma", "0.1", "--seed", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        for field in ("method:", "test_rmse:", "sparsity:", "termination:"):
            assert field in out

    def test_ogl_with_k(self, capsys):
        code = main(
            ["fit", "--method", "ogl:max@5", "--m-train", "80", "--m-test", "40",
             "--n", "25", "--sigma", "0.5"]
        )
        assert code == 0
        assert "sparsity: 5" in capsys.readouterr().out

    def test_pgl_with_raw_atoms_fails(self, capsys):
        code = main(
            ["fit", "--method", "pgl@5", "--m-train", "60", "--m-test", "30",
             "--n", "20", "--raw-atoms"]
        )
        assert code == 1
        assert "--raw-atoms" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "method, grid",
        [
            ("dtogl:max@1.5", "delta_grid"),
            ("ridge@-1", "lambda_grid"),
            ("ogl:max@-2", "k_grid"),
            ("ogl:max@2.5", "k_grid"),
        ],
    )
    def test_out_of_range_parameter_fails(self, capsys, method, grid):
        code = main(
            ["fit", "--method", method, "--m-train", "60", "--m-test", "30", "--n", "20"]
        )
        assert code == 1
        assert f"error: {grid} values must be" in capsys.readouterr().err

    def test_method_without_parameter_fails(self, capsys):
        code = main(["fit", "--method", "ogl:max"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestReportCommand:
    def test_aggregates_existing_csv(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        assert main(_bench_args(out)) == 0
        capsys.readouterr()
        code = main(["report", "--in", str(out), "--format", "markdown"])
        assert code == 0
        text = capsys.readouterr().out
        assert text.startswith("| method |")

    def test_missing_file_fails(self, capsys):
        assert main(["report", "--in", "/nonexistent/r.csv"]) == 1
        assert "error:" in capsys.readouterr().err


_SMALL = ["--m-train", "50", "--m-test", "20", "--n", "10"]
_BOUNDARY_CASES = [
    # (argv, exit code): a bad number exits 1 with one error line, never a traceback
    (["bench", "sinc", *_SMALL, "--methods", "ridge", "--eta", "1e-300"], 1),
    (["bench", "sinc", *_SMALL, "--methods", "ridge", "--eta", "1e300"], 1),
    (["bench", "sinc", *_SMALL, "--methods", "ridge", "--eta", "0"], 1),
    (["bench", "sinc", *_SMALL, "--methods", "ridge", "--eta", "-1"], 1),
    (["bench", "sinc", *_SMALL, "--methods", "ridge", "--eta", "nan"], 1),
    (["bench", "sinc", *_SMALL, "--methods", "ridge", "--eta", "inf"], 1),
    (["bench", "sinc", *_SMALL, "--methods", "ridge", "--lambda-grid", "1e-3:inf:3"], 1),
    (["fit", "--method", "ridge@inf", *_SMALL], 1),
    (["fit", "--method", "fista@inf", *_SMALL], 1),
    (["fit", "--method", "ridge@nan", *_SMALL], 1),
    (["fit", "--method", "ridge@0", *_SMALL], 1),
    (["bench", "sinc", *_SMALL, "--methods", "ridge,fista", "--eta", "0.5",
      "--lambda-grid", "1e-3:1e-1:2", "--no-timing"], 0),
    (["fit", "--method", "ridge@1e300", *_SMALL], 0),
    # a target whose norm overflows: flagged bench rows, a failed fit
    (["bench", "sinc", *_SMALL, "--methods", "ridge,fista", "--sigma", "1e300",
      "--lambda-grid", "1e-3:1e-1:2", "--no-timing"], 0),
    (["fit", "--method", "fista@1e-3", *_SMALL, "--sigma", "1e300"], 1),
    (["fit", "--method", "ridge@1e-3", *_SMALL, "--sigma", "1e300"], 1),
    # two seeds of rows with an infinite RMSE: an infinite standard error, not nan
    (["bench", "sinc", *_SMALL, "--methods", "ridge", "--sigma", "1e300",
      "--lambda-grid", "1e-3:1e-1:2", "--seeds", "2", "--no-timing"], 0),
    # empty lists: no noise level, no log grid
    (["bench", "sinc", *_SMALL, "--methods", "ridge", "--sigma", ""], 1),
    (["bench", "sinc", *_SMALL, "--methods", "dtogl:max", "--delta-grid", ""], 1),
    # every atom dead (eta^2 = 1e-300): flagged ridge rows, no nan
    (["bench", "sinc", *_SMALL, "--eta", "1e-150", "--methods", "ridge", "--sigma", "0.5",
      "--lambda-grid", "1e-3:1e-1:2", "--no-timing"], 0),
    (["bench", "sinc", *_SMALL, "--methods", "ogl:max", "--k-grid", "0:1e300"], 1),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv,code", _BOUNDARY_CASES, ids=lambda v: " ".join(v) if isinstance(v, list) else str(v)
)
def test_numeric_boundaries(argv, code, capsys):
    assert main(argv) == code
    out, err = capsys.readouterr()
    if code:
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
    else:
        assert "nan" not in out.lower()


@pytest.mark.parametrize(
    "flag,message",
    [("--sigma", "at least one noise level required"), ("--delta-grid", "bad log grid ''")],
)
def test_empty_list_is_named(flag, message, capsys):
    assert main(["bench", "sinc", *_SMALL, "--methods", "dtogl:max", flag, ""]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_unparsable_k_grid_is_named(capsys):
    assert main(["bench", "sinc", *_SMALL, "--methods", "ogl:max", "--k-grid", "0:1e300"]) == 1
    assert capsys.readouterr().err == "error: bad k grid '0:1e300'\n"


def test_overflowing_target_flags_every_row(capsys):
    argv = ["bench", "sinc", *_SMALL, "--methods", "ridge,fista", "--sigma", "1e300",
            "--lambda-grid", "1e-3:1e-1:2", "--no-timing"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    rows = [line for line in out.splitlines()[1:] if not line.startswith("#")]
    assert len(rows) == 4 and all(",inf,inf,0,0,error:ValueError," in row for row in rows)
    assert err.count("target norm must be finite and positive") == 4


def test_arithmetic_error_is_reported(monkeypatch, capsys):
    def overflow(config):
        raise OverflowError("result too large")

    monkeypatch.setattr(cli, "sweep", overflow)
    assert main(_bench_args("unused.csv")) == 1
    assert capsys.readouterr().err == "error: result too large\n"


def test_report_names_uncertified_pick(tmp_path, capsys):
    from greedyreg.bench import emit_report
    from greedyreg.core import FitReport

    rows = [
        FitReport("fista", lam, 0.1, seed, rmse, 0.1, 5, iters, term, 0.0)
        for lam, rmse, iters, term in ((1e-4, 0.1, 10000, "max_iter"), (1e-2, 0.3, 40, "converged"))
        for seed in (0, 1, 2)
    ]
    path = tmp_path / "rows.csv"
    emit_report(rows, path)
    capsys.readouterr()
    assert main(["report", "--in", str(path), "--format", "csv"]) == 0
    out, err = capsys.readouterr()
    assert out == path.read_text(encoding="utf-8")
    assert err == "uncertified: fista sigma=0.1 param=0.0001: 3 of its rows ended max_iter\n"


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "greedyreg.cli", "fit", "--method", "ridge@0.01",
         "--m-train", "60", "--m-test", "30", "--n", "20", "--sigma", "0.1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "test_rmse:" in proc.stdout


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, greedyreg.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
