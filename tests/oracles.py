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


def lasso_objective(dm, y, coef, lam):
    """(1/2m) ||y - G a||^2 + lam ||a||_1 from the design's columns."""
    resid = y - dm.columns @ coef
    return float(resid @ resid) / (2 * dm.m) + lam * float(np.sum(np.abs(coef)))


def fista_reference(gram, b, yy, lip, lam, max_iter, tol):
    """The monotone FISTA loop as first written, one new vector per operation.

    Takes the Gram matrix G'G/m, b = G'y/m, yy = y'y/m and the step's
    Lipschitz constant.  Returns the accepted iterate, the iterations
    used, whether the relative duality gap reached tol, and that gap.
    """

    def shrink(values, t):
        return np.sign(values) * np.maximum(np.abs(values) - t, 0.0)

    def objective_and_gap(x, gx):
        bx = float(b @ x)
        mean_sq_resid = yy - 2.0 * bx + float(x @ gx)
        primal = 0.5 * mean_sq_resid + lam * float(np.abs(x).sum())
        top = float(np.abs(b - gx).max())
        scale = min(1.0, lam / top) if top > 0 else 1.0
        dual = scale * (yy - bx) - 0.5 * scale * scale * mean_sq_resid
        return primal, (primal - dual) / primal if primal > 0 else 0.0

    x = gx = momentum = g_momentum = np.zeros(gram.shape[0])
    obj, gap = objective_and_gap(x, gx)
    t = 1.0
    for used in range(1, max_iter + 1):
        z = shrink(momentum - (g_momentum - b) / lip, lam / lip)
        gz = gram @ z
        obj_z, gap_z = objective_and_gap(z, gz)
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        if obj_z <= obj:
            x_next, gx_next, obj, gap = z, gz, obj_z, gap_z
        else:
            x_next, gx_next = x, gx
        a, c = t / t_next, (t - 1.0) / t_next
        momentum = x_next + a * (z - x_next) + c * (x_next - x)
        g_momentum = gx_next + a * (gz - gx_next) + c * (gx_next - gx)
        x, gx, t = x_next, gx_next, t_next
        if gap <= tol:
            return x, used, True, gap
    return x, max_iter, False, gap


def rbf_atoms(spec, inputs, indices=None):
    """Atoms at the inputs by the plain expression, one temporary per operation."""
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim == 1:
        inputs = inputs.reshape(-1, 1)
    centers = spec.centers if indices is None else spec.centers[list(indices)]
    sq = (
        np.sum(inputs**2, axis=1)[:, None]
        + np.sum(centers**2, axis=1)[None, :]
        - 2.0 * inputs @ centers.T
    )
    np.clip(sq, 0.0, None, out=sq)
    return np.exp(-sq / spec.eta**2)


def normalized_design(columns):
    """(raw column norms, columns scaled to unit empirical norm; dead ones untouched)."""
    norms = np.sqrt(np.mean(columns**2, axis=0))
    return norms, columns / np.where(norms >= 1e-12, norms, 1.0)
