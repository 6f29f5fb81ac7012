"""Independent reference implementations used to cross-check the library.

These deliberately take the slow, obvious route (full least-squares
re-solves, cyclic coordinate minimization) and share no code with the
implementations they audit.
"""

import numpy as np


def correlations(columns, residual):
    """|<residual, g_j>_m| / ||residual||_m for every column g_j."""
    residual = np.asarray(residual, dtype=float)
    m = columns.shape[0]
    return np.abs(columns.T @ residual) / (m * np.sqrt(np.mean(residual**2)))


def naive_omp(columns, y, k_max):
    """Orthogonal pursuit that re-solves the full least-squares each step.

    Selection ranks atoms by |column . residual| with already-selected
    atoms excluded and ties to the lowest index.
    """
    residual = y.astype(float).copy()
    selected = []
    prefix_coefs = []
    for _ in range(k_max):
        corr = np.abs(columns.T @ residual)
        corr[selected] = -1.0
        idx = int(np.argmax(corr))
        selected.append(idx)
        g = columns[:, selected]
        coef, *_ = np.linalg.lstsq(g, y, rcond=None)
        residual = y - g @ coef
        prefix_coefs.append(coef)
    return selected, prefix_coefs


def coordinate_descent_lasso(columns, y, lam, max_cycles=50000, tol=1e-13):
    """Cyclic coordinate minimization of (1/2m)||y - Ga||^2 + lam ||a||_1."""
    m, n = columns.shape
    col_sq = np.mean(columns**2, axis=0)
    a = np.zeros(n)
    resid = y.astype(float).copy()
    for _ in range(max_cycles):
        max_change = 0.0
        for j in range(n):
            if col_sq[j] == 0.0:
                continue
            rho = (columns[:, j] @ resid) / m + col_sq[j] * a[j]
            new = float(np.sign(rho) * max(abs(rho) - lam, 0.0)) / col_sq[j]
            delta = new - a[j]
            if delta != 0.0:
                resid -= columns[:, j] * delta
                a[j] = new
                max_change = max(max_change, abs(delta))
        if max_change < tol:
            break
    return a


def long_double_back_substitution(r, z):
    """Solve upper triangular r x = z row by row in np.longdouble, left unrounded.

    Each unknown takes one dot product with those already solved, the
    row-oriented order; the library's solve is column-oriented.
    """
    r = np.asarray(r, dtype=np.longdouble)
    x = np.array(z, dtype=np.longdouble)
    for i in range(x.shape[0] - 1, -1, -1):
        x[i] = (x[i] - r[i, i + 1 :] @ x[i + 1 :]) / r[i, i]
    return x


def forward_error(x, exact):
    """max |x - exact| / max |exact|, computed in np.longdouble."""
    exact = np.asarray(exact, dtype=np.longdouble)
    diff = np.asarray(x, dtype=np.longdouble) - exact
    return float(np.abs(diff).max() / np.abs(exact).max())
