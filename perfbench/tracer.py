"""Per-layer tracing of greedyreg from outside its source.

The tracer replaces public functions on greedyreg's modules with
wrappers that record one span per call (name, layer, start, end, parent
span, fit id) and a few counters, and restores the originals afterwards.
Each module is one layer.  Functions are patched where their caller
looks them up, e.g. ``greedyreg.algorithms.select_atom`` rather than
``greedyreg.greedy.select_atom``, because the fitting loop imported the
name into its own namespace.

A layer's self time is the duration of its spans minus the time covered
by their child spans.  The process is single-threaded, so children of a
span never overlap and that is a plain subtraction.
"""

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("cli", "bench", "data", "dictionary", "greedy", "linalg", "algorithms", "baselines")

# (module, attribute, layer, starts a new fit id)
PATCHES = (
    ("greedyreg.cli", "main", "cli", False),
    ("greedyreg.cli", "sweep", "bench", False),
    ("greedyreg.cli", "render_report", "bench", False),
    ("greedyreg.bench", "oracle_select", "bench", False),
    ("greedyreg.bench", "gen_sinc", "data", False),
    ("greedyreg.bench", "load_csv", "data", False),
    ("greedyreg.bench", "split_half", "data", False),
    ("greedyreg.bench", "zscore_fit_apply", "data", False),
    ("greedyreg.bench", "build_rbf_uniform", "dictionary", False),
    ("greedyreg.bench", "build_rbf_from_samples", "dictionary", False),
    ("greedyreg.bench", "evaluate_design", "dictionary", False),
    ("greedyreg.bench", "normalize_columns", "dictionary", False),
    ("greedyreg.bench", "evaluate_atoms", "dictionary", False),
    ("greedyreg.algorithms", "fit_ogl", "algorithms", True),
    ("greedyreg.algorithms", "fit_togl", "algorithms", True),
    ("greedyreg.algorithms", "fit_delta_togl", "algorithms", True),
    ("greedyreg.algorithms", "fit_pgl", "algorithms", True),
    ("greedyreg.algorithms", "prefix_predictions", "algorithms", False),
    ("greedyreg.algorithms", "select_atom", "greedy", False),
    ("greedyreg.algorithms", "correlation", "greedy", False),
    ("greedyreg.algorithms", "project_append", "linalg", False),
    ("greedyreg.algorithms", "solve_coefficients", "linalg", False),
    ("greedyreg.baselines", "fit_ridge", "baselines", True),
    ("greedyreg.baselines", "fit_fista", "baselines", True),
    ("greedyreg.baselines", "lipschitz_estimate", "baselines", False),
    ("greedyreg.baselines", "lasso_objective", "baselines", False),
)

ALGORITHM_FITS = ("fit_ogl", "fit_togl", "fit_delta_togl", "fit_pgl")


def _arg(args, kwargs, position, name):
    if len(args) > position:
        return args[position]
    return kwargs.get(name)


def lasso_objective(columns, y, coef, lam):
    """(1/2m) ||y - G a||^2 + lam ||a||_1, the objective fit_fista minimizes.

    Computed here rather than with greedyreg's own function, so that a
    broken objective in the program cannot hide a broken solver.
    """
    resid = y - columns @ coef
    return float(resid @ resid) / (2 * columns.shape[0]) + lam * float(np.abs(coef).sum())


def lasso_relative_gap(columns, y, coef, lam):
    """Relative duality gap of a lasso solution (Fercoq, Gramfort & Salmon 2015).

    In the scaled form 1/2 ||y - G a||^2 + alpha ||a||_1 with alpha = m lam,
    the residual rescaled to satisfy ||G' theta||_inf <= alpha is dual
    feasible; the gap is primal minus dual over primal.
    """
    m = columns.shape[0]
    alpha = m * lam
    resid = y - columns @ coef
    primal = 0.5 * float(resid @ resid) + alpha * float(np.abs(coef).sum())
    dual_norm = float(np.abs(columns.T @ resid).max())
    theta = resid * min(1.0, alpha / dual_norm) if dual_norm > 0 else resid
    diff = y - theta
    dual = 0.5 * float(y @ y) - 0.5 * float(diff @ diff)
    return (primal - dual) / primal


class Tracer:
    """Spans and counters for one sweep at a time; see ``reset``."""

    def __init__(self):
        self._patched = []
        self.missing = []
        self.fista_max_iter = None
        self.reset()

    def reset(self):
        self.spans = []
        self._stack = []
        self._fits = 0
        self.layer_self = defaultdict(float)
        self.name_self = defaultdict(float)
        self.name_total = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.fista_fits = []

    # --- spans ---

    def _enter(self, name, layer, new_fit):
        parent = self._stack[-1][0] if self._stack else None
        if new_fit:
            self._fits += 1
            fit = self._fits
        else:
            fit = parent[2] if parent is not None else None
        span = [len(self.spans), None if parent is None else parent[0], fit, name, layer, 0.0, 0.0]
        self.spans.append(span)
        self._stack.append([span, 0.0])
        span[5] = time.perf_counter()

    def _exit(self):
        end = time.perf_counter()
        span, child_seconds = self._stack.pop()
        span[6] = end
        total = end - span[5]
        own = total - child_seconds
        self.layer_self[span[4]] += own
        self.name_self[span[3]] += own
        self.name_total[span[3]] += total
        self.calls[span[3]] += 1
        if self._stack:
            self._stack[-1][1] += total

    # --- patching ---

    def install(self):
        for module_name, attr, layer, new_fit in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if attr == "fit_fista":
                param = inspect.signature(original).parameters.get("max_iter")
                self.fista_max_iter = None if param is None else param.default
            name = f"{layer}.{attr}"
            observe = getattr(self, f"_observe_{attr}", None)
            setattr(module, attr, self._wrap(original, name, layer, new_fit, observe))
            self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def _wrap(self, original, name, layer, new_fit, observe):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            tracer._enter(name, layer, new_fit)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                tracer.counts[f"{name}:raised:{type(exc).__name__}"] += 1
                raise
            finally:
                tracer._exit()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    # --- counters, taken from arguments and results outside the spans ---

    def _observe_select_atom(self, args, kwargs, result):
        n = _arg(args, kwargs, 0, "dm").n
        criterion = _arg(args, kwargs, 3, "criterion")
        if getattr(criterion, "kind", None) == "first":
            examined = n if result is None else int(result) + 1
        else:
            examined = n
        self.counts["greedy.atoms_examined"] += examined
        self.counts["greedy.atoms_offered"] += n

    def _observe_fit(self, args, kwargs, result):
        self.counts["algorithms.atoms_selected"] += len(result.selected)

    _observe_fit_ogl = _observe_fit_togl = _observe_fit_delta_togl = _observe_fit_pgl = _observe_fit

    def _observe_evaluate_design(self, args, kwargs, result):
        self.counts["dictionary.entries"] += int(result.columns.size)

    def _observe_evaluate_atoms(self, args, kwargs, result):
        self.counts["dictionary.entries"] += int(np.asarray(result).size)

    def _observe_sweep(self, args, kwargs, result):
        self.counts["bench.rows"] += len(result)

    def _observe_fit_fista(self, args, kwargs, result):
        max_iter = kwargs.get("max_iter", self.fista_max_iter)
        self.counts["baselines.fista_iterations"] += int(result.iterations_used)
        self.counts["baselines.fista_max_iter_hits"] += int(result.iterations_used == max_iter)
        dm = _arg(args, kwargs, 0, "dm")
        y = np.asarray(_arg(args, kwargs, 1, "y"), dtype=float)
        lam = float(_arg(args, kwargs, 2, "lam"))
        # Kept for the gap and objective, computed after the sweep ends.
        self.fista_fits.append((dm.columns, y, result.coefficients, lam))

    # --- results ---

    def fista_results(self):
        """(lam, objective, relative gap) per FISTA fit of the last sweep."""
        return [
            (lam, lasso_objective(g, y, a, lam), lasso_relative_gap(g, y, a, lam))
            for g, y, a, lam in self.fista_fits
        ]

    def metrics(self):
        """Per-layer metrics of the last sweep: seconds (by name) and counts."""
        t, c, calls = self.name_total, self.counts, self.calls
        cli_total = t["cli.main"]
        select_calls = calls["greedy.select_atom"]
        append_calls = calls["linalg.project_append"]
        skips = c["linalg.project_append:raised:DegenerateColumn"]
        iterations = c["baselines.fista_iterations"]
        fista_s = t["baselines.fit_fista"]
        seconds = {
            "greedy.select_s": t["greedy.select_atom"],
            "greedy.correlation_s": t["greedy.correlation"],
            "linalg.append_s": t["linalg.project_append"],
            "linalg.solve_s": t["linalg.solve_coefficients"],
            "algorithms.fit_self_s": sum(self.name_self[f"algorithms.{f}"] for f in ALGORITHM_FITS),
            "algorithms.prefix_predictions_s": t["algorithms.prefix_predictions"],
            "baselines.fista_s": fista_s,
            "baselines.fista_us_per_iter": 1e6 * fista_s / iterations if iterations else 0.0,
            "baselines.lipschitz_s": t["baselines.lipschitz_estimate"],
            "baselines.objective_s": t["baselines.lasso_objective"],
            "baselines.ridge_s": t["baselines.fit_ridge"],
            "dictionary.build_s": t["dictionary.build_rbf_uniform"]
            + t["dictionary.build_rbf_from_samples"],
            "dictionary.design_s": t["dictionary.evaluate_design"]
            + t["dictionary.normalize_columns"],
            "dictionary.test_atoms_s": t["dictionary.evaluate_atoms"],
            "data.gen_sinc_s": t["data.gen_sinc"],
            "data.load_csv_s": t["data.load_csv"],
            "data.split_zscore_s": t["data.split_half"] + t["data.zscore_fit_apply"],
            "bench.self_s": self.layer_self["bench"],
            "bench.oracle_select_s": t["bench.oracle_select"],
            "bench.render_s": self.name_self["bench.render_report"],
            "cli.self_s": self.layer_self["cli"],
            "trace.sweep_s": cli_total,
        }
        for layer in LAYERS:
            seconds[f"{layer}.self_share"] = self.layer_self[layer] / cli_total if cli_total else 0.0
        counts = {
            "greedy.select_calls": select_calls,
            "greedy.atoms_examined": c["greedy.atoms_examined"],
            "greedy.scan_fraction": c["greedy.atoms_examined"] / c["greedy.atoms_offered"]
            if select_calls
            else 0.0,
            "linalg.append_calls": append_calls,
            "linalg.degenerate_skips": skips,
            "linalg.append_yield": (append_calls - skips) / append_calls if append_calls else 0.0,
            "linalg.solve_calls": calls["linalg.solve_coefficients"],
            "algorithms.fits": sum(calls[f"algorithms.{f}"] for f in ALGORITHM_FITS),
            "algorithms.atoms_selected": c["algorithms.atoms_selected"],
            "baselines.fista_fits": calls["baselines.fit_fista"],
            "baselines.fista_iterations": iterations,
            "baselines.fista_max_iter_hits": c["baselines.fista_max_iter_hits"],
            "baselines.ridge_fits": calls["baselines.fit_ridge"],
            "dictionary.entries": c["dictionary.entries"],
            "dictionary.bytes_computed": 8 * c["dictionary.entries"],
            "bench.rows": c["bench.rows"],
        }
        return seconds, counts

    def write_spans(self, path, header):
        """Write the last sweep's spans as JSON lines, times relative to its start."""
        origin = self.spans[0][5] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span_id, parent, fit, name, layer, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "fit": fit,
                            "name": name,
                            "layer": layer,
                            "start": start - origin,
                            "end": end - origin,
                        }
                    )
                    + "\n"
                )

