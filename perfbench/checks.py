"""Correctness checks on the CSV reports a sweep prints.

Rows are located by header name, so extra report columns do not break
the checks.  Each check returns a list of problem strings; empty means
the output passed.
"""

import math

# Oracle test RMSE must match the stored reference to these relative
# tolerances.  Ridge is a well-posed linear solve, so any correct
# implementation agrees to rounding.  Greedy selection can break a
# near-tie between two almost identical atoms differently after a
# last-ulp change in the residual, which moves the RMSE far less than
# GREEDY_RTOL; a wrong fit moves it more.
RIDGE_RTOL = 1e-6
GREEDY_RTOL = 1e-3

# A FISTA objective may exceed its reference only by rounding.
OBJECTIVE_RTOL = 1e-9

GREEDY_PREFIXES = ("ogl", "togl", "dtogl", "pgl")


def parse_report(text):
    """Data rows of a CSV report as dicts keyed by header name."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def failed_rows(rows):
    """Rows with an ``error:`` termination or a non-finite RMSE."""
    bad = []
    for row in rows:
        values = (float(row["test_rmse"]), float(row["train_rmse"]))
        if row["termination"].startswith("error:") or not all(map(math.isfinite, values)):
            bad.append(row)
    return bad


def ogl_train_monotone(rows):
    """OGL k-sweep training error never grows with k: the spans are nested."""
    problems = []
    paths = {}
    for row in rows:
        if row["method"].startswith("ogl:"):
            key = (row["method"], row["sigma"], row["seed"])
            paths.setdefault(key, []).append((int(row["param"]), float(row["train_rmse"])))
    for key, path in paths.items():
        path.sort()
        for (k0, e0), (k1, e1) in zip(path, path[1:]):
            if e1 > e0 * (1 + 1e-9):
                problems.append(f"{key}: train_rmse rises from k={k0} to k={k1}")
                break
    return problems


def oracle_rows(rows):
    """Best mean test RMSE per (method, sigma), ties to the smaller parameter."""
    cells = {}
    for row in rows:
        cells.setdefault((row["method"], row["sigma"], float(row["param"])), []).append(
            float(row["test_rmse"])
        )
    best = {}
    for (method, sigma, param), values in cells.items():
        mean = sum(values) / len(values)
        key = (method, sigma)
        if key not in best or (mean, param) < best[key]:
            best[key] = (mean, param)
    return {f"{method}|{sigma}": {"param": param, "test_rmse": mean}
            for (method, sigma), (mean, param) in sorted(best.items())}


def aggregate_params(text):
    """The program's own oracle choice per (method, sigma) from its #aggregate block."""
    chosen = {}
    for line in text.splitlines():
        if line.startswith("#aggregate,") and not line.startswith("#aggregate,method,"):
            fields = line.split(",")
            chosen[f"{fields[1]}|{fields[2]}"] = float(fields[3])
    return chosen


def _sigma_text(sigma):
    return "" if sigma == "" else f"{float(sigma):g}"


def check_oracle(text, reference):
    """Greedy and ridge oracle rows against the reference, and the report's own oracle."""
    problems = []
    rows = parse_report(text)
    ours = oracle_rows(rows)
    printed = aggregate_params(text)
    for key, best in ours.items():
        method, sigma = key.split("|")
        shown = printed.get(f"{method}|{_sigma_text(sigma)}")
        if shown is None or not math.isclose(shown, best["param"], rel_tol=1e-5):
            problems.append(f"{key}: report picks {shown}, best row is {best['param']}")
    for key, ref in reference.items():
        method = key.split("|")[0]
        if method == "ridge":
            rtol = RIDGE_RTOL
        elif method.startswith(GREEDY_PREFIXES):
            rtol = GREEDY_RTOL
        else:
            continue
        got = ours.get(key)
        if got is None:
            problems.append(f"{key}: missing from the report")
        elif not math.isclose(got["test_rmse"], ref["test_rmse"], rel_tol=rtol):
            problems.append(
                f"{key}: oracle test_rmse {got['test_rmse']!r}, reference {ref['test_rmse']!r}"
            )
    return problems


def check_fista(results, reference):
    """One-sided: each lambda's lasso objective is no higher than the reference."""
    if len(results) != len(reference):
        return [f"{len(results)} FISTA fits, reference has {len(reference)}"]
    problems = []
    for (lam, objective, _gap), ref in zip(sorted(results), sorted(reference, key=lambda r: r["lam"])):
        if not math.isclose(lam, ref["lam"], rel_tol=1e-12):
            problems.append(f"FISTA lambda {lam!r}, reference {ref['lam']!r}")
        elif objective > ref["objective"] * (1 + OBJECTIVE_RTOL):
            problems.append(f"lambda={lam:g}: objective {objective!r} above reference {ref['objective']!r}")
    return problems
