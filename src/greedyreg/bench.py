"""Experiment harness: parameter sweeps, oracle selection, reports.

A sweep is a pure function of its configuration and seed list: datasets,
dictionaries, and any per-method randomness all derive from the master
seed through fixed counters, so reruns are reproducible byte for byte
(timing can be suppressed for exact comparisons).  One k-capped greedy
fit yields every prefix model, so k-sweeps cost a single fit; threshold
and ridge sweeps rerun the fit per grid point.  Every max fit of a cell
(ogl, togl and dtogl) is cut from the cell's one MaxPath, and its row
reports the path's clock where the fit stops.  The other orthogonal fits
of one threshold sweep share a FitTree, so a prefix that several
thresholds select is appended and scanned once, and the fista fits of
one lambda sweep share a LassoPath, which solves the whole grid in one
loop; the rows of such a sweep report its mean fit time.  None of these
depends on the order of the grid.
"""

import functools
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import algorithms, baselines
from .core import FIXED_K, MAX_ITER, DesignMatrix, FitReport
from .data import gen_sinc, load_csv, split_half, zscore_fit_apply
from .dictionary import (
    build_rbf_from_samples,
    build_rbf_uniform,
    evaluate_atoms,
    evaluate_design,
    normalize_columns,
)
from .greedy import Criterion
from .linalg import empirical_norm, rmse, truncate_values

_K_SWEEP_CAP = 300
DEFAULT_DELTA_GRID = (1e-6, 0.5, 50)
DEFAULT_LAMBDA_GRID = (1e-8, 1e2, 30)

REPORT_COLUMNS = (
    "method",
    "param",
    "sigma",
    "seed",
    "test_rmse",
    "train_rmse",
    "sparsity",
    "iterations",
    "termination",
    "seconds",
)


class EmptyTable(ValueError):
    """Oracle selection over zero rows."""


def time_fit(thunk):
    """Run a fit thunk under a monotonic clock; returns (result, seconds)."""
    start = time.perf_counter()
    result = thunk()
    return result, time.perf_counter() - start


class _Algorithm(NamedTuple):
    """Per-algorithm facts read by MethodSpec, the sweep and the CLI.

    ``criteria`` are the accepted selection criteria, default first (none
    if empty).  ``grid`` names the ExperimentConfig grid swept: a "k" grid
    is read off one capped fit at every prefix, other grids refit per
    point.  ``fit(dm, y, param, criterion, rng, tree)`` runs one fit;
    ``tree`` is the cell's MaxPath for a max criterion, else what
    ``share(dm, y, grid)`` made for the fits of one sweep to share: a
    FitTree for a delta sweep, a LassoPath for a lasso sweep (None if
    there is no ``share``; those fits ignore it).  ``fit`` looks the
    fitting function up on its module at call time, so that a replaced
    module attribute (as in tracing) takes effect.
    """

    criteria: tuple
    grid: str
    fit: Callable
    share: Callable | None = None


_RANKED = ("max", "max2", "max3", "rand")
_ALGORITHMS = {
    "ogl": _Algorithm(
        _RANKED,
        "k",
        lambda dm, y, k, crit, rng, tree: algorithms.fit_ogl(
            dm, y, Criterion(crit), min(k, dm.n), rng, tree
        ),
    ),
    "pgl": _Algorithm((), "k", lambda dm, y, k, crit, rng, tree: algorithms.fit_pgl(dm, y, k)),
    "togl": _Algorithm(
        _RANKED + ("first",),
        "delta",
        lambda dm, y, delta, crit, rng, tree: algorithms.fit_togl(
            dm, y, Criterion(crit, delta), min(dm.n, _K_SWEEP_CAP), rng, tree
        ),
        lambda dm, y, grid: algorithms.FitTree(dm, y),
    ),
    "dtogl": _Algorithm(
        ("first",) + _RANKED,
        "delta",
        lambda dm, y, delta, crit, rng, tree: algorithms.fit_delta_togl(
            dm, y, delta, crit, rng, tree
        ),
        lambda dm, y, grid: algorithms.FitTree(dm, y),
    ),
    "ridge": _Algorithm(
        (), "lambda", lambda dm, y, lam, crit, rng, tree: baselines.fit_ridge(dm, y, lam)
    ),
    "fista": _Algorithm(
        (),
        "lambda",
        lambda dm, y, lam, crit, rng, path: baselines.fit_fista(dm, y, lam, path=path),
        lambda dm, y, grid: baselines.LassoPath(dm, y, grid),
    ),
}


@dataclass(frozen=True)
class MethodSpec:
    """One benchmark method: algorithm, optional criterion, optional pinned parameter."""

    algorithm: str
    criterion: str | None = None
    param: float | None = None

    def __post_init__(self):
        if self.algorithm not in _ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        criteria = _ALGORITHMS[self.algorithm].criteria
        if not criteria:
            if self.criterion is not None:
                raise ValueError(f"{self.algorithm} takes no criterion")
            return
        crit = self.criterion or criteria[0]
        if crit not in criteria:
            raise ValueError(f"{self.algorithm} does not support criterion {crit!r}")
        object.__setattr__(self, "criterion", crit)

    @property
    def label(self) -> str:
        if self.criterion is None:
            return self.algorithm
        return f"{self.algorithm}:{self.criterion}"

    @property
    def grid(self) -> str:
        """Name of the grid this method sweeps: "k", "delta" or "lambda"."""
        return _ALGORITHMS[self.algorithm].grid

    @property
    def reads_path(self) -> bool:
        """Whether its fits are cut from the cell's max path (ogl, togl and dtogl with max)."""
        return self.criterion == "max"


def parse_method(text: str) -> MethodSpec:
    """Parse encodings like 'ogl:max', 'dtogl:first@1e-4', 'ridge@0.01'."""
    text = text.strip()
    param = None
    if "@" in text:
        text, param_text = text.rsplit("@", 1)
        param = float(param_text)
    if ":" in text:
        algorithm, criterion = text.split(":", 1)
        return MethodSpec(algorithm, criterion, param)
    return MethodSpec(text, None, param)


_GRID_VALUES = {
    "k_grid": ("integers >= 0", lambda k: k >= 0 and float(k).is_integer()),
    "delta_grid": ("in (0, 1)", lambda delta: 0 < delta < 1),
    "lambda_grid": ("finite and > 0", lambda lam: 0 < lam < np.inf),
}


@dataclass
class ExperimentConfig:
    """Everything a sweep needs; grids of None take task-sized defaults."""

    task: str = "sinc"
    methods: list = field(default_factory=list)
    seeds: list = field(default_factory=lambda: [0])
    # sinc task
    m_train: int = 1000
    m_test: int = 1000
    n: int = 300
    sigmas: list = field(default_factory=lambda: [0.1, 0.5, 1.0, 2.0])
    eta: float = 1.0
    # csv task
    csv_path: str | None = None
    target_column: object = "last"
    header: bool = True
    # shared
    normalize_atoms: bool = True
    k_grid: list | None = None
    delta_grid: list | None = None
    lambda_grid: list | None = None
    include_materialization: bool = False
    # a failed fit becomes a flagged row; unset, its error is raised
    flag_failures: bool = True

    def validate(self) -> "ExperimentConfig":
        if self.task not in ("sinc", "csv"):
            raise ValueError(f"unknown task {self.task!r}")
        if not self.methods:
            raise ValueError("at least one method required")
        if not self.seeds:
            raise ValueError("at least one seed required")
        if self.task == "sinc" and not self.sigmas:
            raise ValueError("at least one noise level required")
        if self.task == "csv" and not self.csv_path:
            raise ValueError("csv task requires a path")
        if not self.normalize_atoms and any(m.algorithm == "pgl" for m in self.methods):
            raise ValueError("pgl requires column-normalized atoms; drop --raw-atoms")
        for grid_name, (wanted, ok) in _GRID_VALUES.items():
            grid = getattr(self, grid_name)
            if grid is not None and len(grid) == 0:
                raise ValueError(f"{grid_name} must be nonempty")
            bad = [value for value in grid or () if not ok(value)]
            if bad:
                raise ValueError(f"{grid_name} values must be {wanted}, got {bad[0]:g}")
        return self


def _resolve_grid(config: ExperimentConfig, name: str, n_dict: int) -> list:
    grid = getattr(config, f"{name}_grid")
    if name == "k":
        if grid is None:
            return list(range(0, min(n_dict, _K_SWEEP_CAP) + 1))
        return [int(k) for k in grid]
    if grid is None:
        default = DEFAULT_DELTA_GRID if name == "delta" else DEFAULT_LAMBDA_GRID
        return list(np.geomspace(*default))
    return [float(value) for value in grid]


@dataclass
class _Cell:
    """Shared per-(sigma, seed) state: data, dictionary, designs, and the max path.

    ``path`` is the MaxPath that every max fit of the cell is cut from,
    made by the first one; the sweep frees it once they have run.
    """

    dm_fit: DesignMatrix
    test_columns: np.ndarray
    y: np.ndarray
    y_norm: float
    y_test: np.ndarray
    bound: float
    rmse_scale: float
    materialize_seconds: float
    path: algorithms.MaxPath | None = None

    def max_path(self) -> algorithms.MaxPath:
        if self.path is None:
            self.path = algorithms.MaxPath(self.dm_fit, self.y)
        return self.path


def _prepare_cell(config, full_dataset, sigma_idx, seed) -> _Cell:
    if config.task == "sinc":
        sigma = config.sigmas[sigma_idx]
        data_rng = np.random.default_rng([seed, 11, sigma_idx])
        train, test = gen_sinc(config.m_train, config.m_test, sigma, data_rng)
        dict_rng = np.random.default_rng([seed, 13, sigma_idx])
        spec = build_rbf_uniform(config.n, -np.pi, np.pi, config.eta, dict_rng)
        rmse_scale = 1.0
    else:
        split_rng = np.random.default_rng([seed, 17])
        train_raw, test_raw = split_half(full_dataset, split_rng)
        train, test, zparams = zscore_fit_apply(train_raw, test_raw)
        spec = build_rbf_from_samples(train.inputs)
        rmse_scale = zparams.target_std
    start = time.perf_counter()
    dm = evaluate_design(spec, train.inputs)
    if config.normalize_atoms:
        dm = normalize_columns(dm)  # the raw design is freed here
    test_columns = evaluate_atoms(spec, test.inputs)
    materialize_seconds = time.perf_counter() - start
    y = train.targets
    with np.errstate(over="ignore", invalid="ignore"):  # the fits reject such a target
        y_norm = empirical_norm(y)
    return _Cell(
        dm_fit=dm,
        test_columns=test_columns,
        y=y,
        y_norm=y_norm,
        y_test=test.targets,
        bound=float(np.max(np.abs(y))),
        rmse_scale=rmse_scale,
        materialize_seconds=materialize_seconds,
    )


class _Run(NamedTuple):
    """One method on one (sigma, seed) cell, and the report rows of its fits."""

    method: MethodSpec
    cell: _Cell
    sigma: float | None
    seed: int

    def row(self, param, test_rmse, train_rmse, sparsity, iterations, termination, seconds):
        """The one report-row constructor; RMSEs come in fitted-target units."""
        scale = self.cell.rmse_scale
        return FitReport(
            self.method.label, param, self.sigma, self.seed, test_rmse * scale,
            train_rmse * scale, sparsity, iterations, termination, seconds,
        )

    def test_rmses(self, block) -> list:
        """The test RMSE of each row of a prediction block, which it overwrites.

        Row by row, the arithmetic of rmse(truncate_values(row, bound), y_test).
        """
        truncate_values(block, self.cell.bound, out=block)
        block -= self.cell.y_test
        block *= block
        return np.sqrt(np.add.reduce(block, axis=1) / block.shape[1]).tolist()

    def failed_row(self, param, exc):
        print(
            f"flagged: {self.method.label} param={param:g} sigma={self.sigma} seed={self.seed}: "
            f"{type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        inf = float("inf")
        return self.row(param, inf, inf, 0, 0, f"error:{type(exc).__name__}", 0.0)

    def prefix_rows(self, grid, trace, seconds):
        """One row per requested k, all derived from a single capped fit."""
        fitted = sorted({min(k, trace.k_fitted) for k in grid})
        block = algorithms.prefix_predictions(trace, self.cell.test_columns, fitted)
        test_rmses = dict(zip(fitted, self.test_rmses(block)))
        distinct, sparsity = set(), [0]  # distinct atoms of each prefix (pure greedy repeats)
        for idx in trace.selected:
            distinct.add(idx)
            sparsity.append(len(distinct))
        rows = []
        for k in grid:
            k_eff = min(k, trace.k_fitted)
            train_res = trace.residual_norms[k_eff - 1] if k_eff else self.cell.y_norm
            termination = FIXED_K if k_eff < trace.k_fitted else trace.termination_reason
            rows.append(
                self.row(
                    k, test_rmses[k_eff], train_res, sparsity[k_eff], k_eff, termination, seconds
                )
            )
        return rows

    def model_rows(self, fits):
        """The rows of fits given as (param, trace, seconds), from one prediction block.

        Every trace must be a prefix of the longest one, as the cuts of
        one MaxPath are: the block solves each prefix as if alone.
        """
        longest = max((trace for _, trace, _ in fits), key=lambda trace: trace.k_fitted)
        ks = sorted({trace.k_fitted for _, trace, _ in fits})
        block = algorithms.prefix_predictions(longest, self.cell.test_columns, ks)
        test_rmses = dict(zip(ks, self.test_rmses(block)))
        rows = []
        for param, trace, seconds in fits:
            train_res = trace.residual_norms[-1] if trace.residual_norms else self.cell.y_norm
            rows.append(
                self.row(
                    param, test_rmses[trace.k_fitted], train_res, trace.k_fitted,
                    trace.iterations, trace.termination_reason, seconds,
                )
            )
        return rows

    def model_row(self, param, trace, seconds):
        return self.model_rows([(param, trace, seconds)])[0]

    def dense_row(self, param, model, seconds):
        dm = self.cell.dm_fit
        pred = self.cell.test_columns @ dm.to_raw_coefficients(model.coefficients)
        train_res = rmse(dm.columns @ model.coefficients, self.cell.y)
        # A closed-form solve (no iterations) counts one iteration per atom.
        iterations = model.iterations_used or dm.n
        return self.row(
            param, self.test_rmses(pred[None])[0], train_res, model.sparsity(), iterations,
            model.termination, seconds,
        )


def _run_method(run, grid, config, sigma_idx, method_idx):
    algo = _ALGORITHMS[run.method.algorithm]
    extra = run.cell.materialize_seconds if config.include_materialization else 0.0
    dm, y, crit = run.cell.dm_fit, run.cell.y, run.method.criterion
    reads_path = run.method.reads_path
    # What the fits share is made in a fit, so that a target it rejects flags the rows.
    if reads_path:
        shared = run.cell.max_path
    elif algo.share is not None:
        shared = functools.cache(lambda: algo.share(dm, y, grid))
    else:
        shared = lambda: None  # noqa: E731

    def fit(param):
        rng = np.random.default_rng([run.seed, 19, sigma_idx, method_idx])

        def thunk():
            return algo.fit(dm, y, param, crit, rng, shared())

        result, seconds = time_fit(thunk)
        if reads_path and result.seconds is not None:
            # the path's clock where the fit stops, not what it ran for other fits
            seconds = result.seconds
        return result, seconds + extra

    def failed(param, exc):
        if not config.flag_failures:
            raise exc
        return run.failed_row(param, exc)

    if algo.grid == "k":
        try:
            trace, seconds = fit(max([1] + grid))
        except (ArithmeticError, ValueError) as exc:  # numerical failures: flagged rows
            return [failed(k, exc) for k in grid]
        return run.prefix_rows(grid, trace, seconds)

    make_row = run.model_row if algo.grid == "delta" else run.dense_row
    rows, fitted, cuts = [], [], []
    for param in grid:
        param = float(param)
        try:
            if reads_path:
                # the cuts share the path's factor: their rows come from one block below
                cuts.append((param, *fit(param)))
                rows.append(None)
            else:
                # unnamed, so a trace and its QR factor are freed before the next fit
                rows.append(make_row(param, *fit(param)))
            fitted.append(len(rows) - 1)
        except (ArithmeticError, ValueError) as exc:
            rows.append(failed(param, exc))
    if cuts:
        try:
            made = run.model_rows(cuts)
        except (ArithmeticError, ValueError) as exc:
            made = [failed(param, exc) for param, _, _ in cuts]
        for i, row in zip(fitted, made):
            rows[i] = row
    elif algo.share is not None and fitted:
        # A fit reads what the fits before it put in the tree, so its own clock
        # depends on its place in the grid; each row carries the sweep's mean.
        share = sum(rows[i].seconds for i in fitted) / len(fitted)
        for i in fitted:
            rows[i] = replace(rows[i], seconds=share)
    return rows


def _sweep_cell(config, full_dataset, grids, sigma_idx, sigma, seed) -> list:
    """The keyed rows of every method on one (sigma, seed) cell.

    The cell and its runs are locals, so its matrices are freed when it
    returns, before the sweep prepares the next cell.
    """
    cell = _prepare_cell(config, full_dataset, sigma_idx, seed)
    # The max fits of a cell read its path: run them first, then free the path.
    methods = config.methods
    order = sorted(range(len(methods)), key=lambda i: not methods[i].reads_path)
    keyed = []
    for method_idx in order:
        method = methods[method_idx]
        if not method.reads_path:
            cell.path = None
        run = _Run(method, cell, sigma, seed)
        rows = _run_method(run, grids[method_idx], config, sigma_idx, method_idx)
        for grid_pos, row in enumerate(rows):
            keyed.append(((method_idx, sigma_idx, grid_pos, seed), row))
    return keyed


def sweep(config: ExperimentConfig) -> list:
    """Run every (method, parameter, seed, sigma) combination.

    Row count is sum over methods of grid size x seeds x sigmas;
    failures become flagged rows rather than aborting.  Output order is
    method, then sigma, then parameter, then seed.
    """
    config.validate()
    full_dataset = None
    if config.task == "csv":
        full_dataset = load_csv(config.csv_path, config.target_column, config.header)
        n_dict = (full_dataset.m + 1) // 2
        sigma_values = [None]
    else:
        n_dict = config.n
        sigma_values = list(config.sigmas)

    grids = [_resolve_grid(config, method.grid, n_dict) for method in config.methods]

    keyed = []
    for sigma_idx, sigma in enumerate(sigma_values):
        for seed in config.seeds:
            keyed += _sweep_cell(config, full_dataset, grids, sigma_idx, sigma, seed)
    keyed.sort(key=lambda pair: pair[0])
    return [row for _, row in keyed]


@dataclass(frozen=True)
class OracleRow:
    """Grid point with the best mean test RMSE for one (method, sigma).

    ``max_iter_rows`` counts its rows whose iterative fit ran out of
    iterations, so that they are no certified solution.
    """

    method: str
    sigma: float | None
    parameter: float
    mean_test_rmse: float
    se_test_rmse: float
    mean_train_rmse: float
    mean_sparsity: float
    mean_seconds: float
    max_iter_rows: int = 0


def _group_stats(groups) -> list:
    """Per group of rows of one size: (mean test, its SE, mean train, sparsity, seconds).

    Each statistic of all the groups is one reduction along the rows of
    a 2-D array, row by row the arithmetic of np.mean and np.std on the
    group alone.  A group with a non-finite test RMSE has an infinite SE.
    """
    size = len(groups[0])
    table = np.array(
        [[(r.test_rmse, r.train_rmse, r.sparsity, r.seconds) for r in group] for group in groups]
    )
    table = np.ascontiguousarray(np.moveaxis(table, 2, 0))  # statistic, group, row
    means = np.mean(table, axis=2)
    test = table[0]
    finite = np.isfinite(test).all(axis=1)
    se = np.full(len(groups), np.inf)
    if size < 2:
        se[finite] = 0.0
    else:
        se[finite] = np.std(test[finite], axis=1, ddof=1) / np.sqrt(size)
    return list(zip(means[0].tolist(), se.tolist(), *means[1:].tolist()))


def oracle_select(rows) -> list:
    """Best grid point per (method, sigma) by mean test RMSE over seeds.

    Ties prefer the smaller parameter, then the smaller mean sparsity.
    """
    if not rows:
        raise EmptyTable("no rows to select from")
    grouped = {}
    for row in rows:
        grouped.setdefault((row.method, row.sigma, row.parameter), []).append(row)
    by_size = {}
    for key, group in grouped.items():
        by_size.setdefault(len(group), []).append(key)
    stats = {}
    for keys in by_size.values():
        stats.update(zip(keys, _group_stats([grouped[key] for key in keys])))

    best = {}  # (method, sigma) -> (order, key of its best group)
    for key in grouped:
        method, sigma, param = key
        mean_test, _, _, mean_sparsity, _ = stats[key]
        order = (mean_test, param, mean_sparsity)
        if (method, sigma) not in best or order < best[method, sigma][0]:
            best[method, sigma] = (order, key)

    summaries = []
    for _, key in best.values():
        method, sigma, param = key
        mean_test, se_test, mean_train, mean_sparsity, mean_seconds = stats[key]
        summaries.append(
            OracleRow(
                method=method,
                sigma=sigma,
                parameter=param,
                mean_test_rmse=mean_test,
                se_test_rmse=se_test,
                mean_train_rmse=mean_train,
                mean_sparsity=mean_sparsity,
                mean_seconds=mean_seconds,
                max_iter_rows=sum(r.termination == MAX_ITER for r in grouped[key]),
            )
        )
    return sorted(summaries, key=lambda summary: (summary.method, _sigma_sort(summary.sigma)))


def _sigma_sort(sigma):
    return -1.0 if sigma is None else float(sigma)


# --- report emission / loading ---


def _format_field(value):
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _row_record(row: FitReport, timing: bool) -> list:
    seconds = row.seconds if timing else 0.0
    return [
        row.method,
        _format_field(row.parameter),
        _format_field(row.sigma),
        str(row.seed),
        repr(float(row.test_rmse)),
        repr(float(row.train_rmse)),
        str(row.sparsity),
        str(row.iterations),
        row.termination,
        repr(float(seconds)),
    ]


def report_row_to_line(row: FitReport, timing: bool = True) -> str:
    return ",".join(_row_record(row, timing))


def report_row_from_line(line: str) -> FitReport:
    parts = line.rstrip("\n").split(",")
    if len(parts) != len(REPORT_COLUMNS):
        raise ValueError(f"expected {len(REPORT_COLUMNS)} fields, got {len(parts)}")
    param_text = parts[1]
    try:
        parameter = int(param_text)
    except ValueError:
        parameter = float(param_text)
    return FitReport(
        method=parts[0],
        parameter=parameter,
        sigma=None if parts[2] == "" else float(parts[2]),
        seed=int(parts[3]),
        test_rmse=float(parts[4]),
        train_rmse=float(parts[5]),
        sparsity=int(parts[6]),
        iterations=int(parts[7]),
        termination=parts[8],
        seconds=float(parts[9]),
    )


def _aggregate_lines(rows, timing: bool) -> list:
    """The aggregate block; a pick with max_iter rows is also named on stderr."""
    lines = [
        "#aggregate,method,sigma,param,test_rmse(se),train_rmse,sparsity,seconds"
    ]
    for summary in oracle_select(rows):
        sigma_text = "" if summary.sigma is None else f"{summary.sigma:g}"
        if summary.max_iter_rows:
            print(
                f"uncertified: {summary.method} sigma={sigma_text} param={summary.parameter:g}: "
                f"{summary.max_iter_rows} of its rows ended {MAX_ITER}",
                file=sys.stderr,
            )
        seconds = summary.mean_seconds if timing else 0.0
        lines.append(
            "#aggregate,{},{},{:g},{:.4f}({:.4f}),{:.4f},{:.1f},{:.4f}".format(
                summary.method,
                sigma_text,
                summary.parameter,
                summary.mean_test_rmse,
                summary.se_test_rmse,
                summary.mean_train_rmse,
                summary.mean_sparsity,
                seconds,
            )
        )
    return lines


def render_report(rows, fmt: str = "csv", timing: bool = True) -> str:
    """Render rows plus the oracle aggregate block as csv or markdown."""
    if not rows:
        raise EmptyTable("no rows to report")
    if fmt == "csv":
        lines = [",".join(REPORT_COLUMNS)]
        lines += [report_row_to_line(row, timing) for row in rows]
        lines += _aggregate_lines(rows, timing)
    elif fmt == "markdown":
        lines = ["| " + " | ".join(REPORT_COLUMNS) + " |"]
        lines.append("|" + "---|" * len(REPORT_COLUMNS))
        for row in rows:
            lines.append("| " + " | ".join(_row_record(row, timing)) + " |")
        lines.append("")
        for agg in _aggregate_lines(rows, timing):
            lines.append("| " + " | ".join(agg.split(",")[1:]) + " |")
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return "\n".join(lines) + "\n"


def emit_report(rows, path, fmt: str = "csv", timing: bool = True) -> None:
    text = render_report(rows, fmt, timing)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_report(path) -> list:
    """Read back the data rows of a CSV report (aggregate block skipped)."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            if i == 0 and line == ",".join(REPORT_COLUMNS):
                continue
            rows.append(report_row_from_line(line))
    return rows
