"""Small numerical helpers shared across modules.

Grid-plus-golden-section extremum search, bracketed root finding by
bisection and by safeguarded Newton steps, and cached Gauss-Legendre nodes.
Everything here is deterministic: fixed grids, fixed iteration budgets,
ties broken toward smaller abscissae.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
BISECT_MAX_ITER = 200
NEWTON_MAX_ITER = 100


@lru_cache(maxsize=32)
def gauss_nodes(n: int):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def golden_max(f, a: float, b: float, tol: float = 1e-9, max_iter: int = 200):
    """Golden-section maximization of a unimodal f on [a, b].

    Raises RuntimeError when the bracket is still wider than tol after
    max_iter reductions.
    """
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(max_iter):
        if b - a < tol:
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = f(x1)
    if not b - a < tol:
        raise RuntimeError(f"golden_max: bracket [{a!r}, {b!r}] still wider "
                           f"than tol = {tol} after {max_iter} reductions")
    xm = 0.5 * (a + b)
    return xm, f(xm)


def grid_sup(f, a: float, b: float, n: int = 4096, top_k: int = 5,
             xtol: float = 1e-9, endpoint_values=(None, None)):
    """Supremum of f on [a, b] by dense grid plus golden-section refinement.

    f must accept numpy arrays. The grid is uniform over the open interval;
    endpoint_values, when given, stand in for f at a and b (useful when f is
    defined there only as a limit). The top_k interior local maxima of the
    grid values are each refined to xtol in the abscissa with scalar calls
    of f. Returns (argmax, sup).
    """
    t = np.linspace(a, b, n + 2)[1:-1]
    v = np.asarray(f(t), dtype=float)
    interior = v[1:-1]
    is_max = (interior >= v[:-2]) & (interior >= v[2:])
    idx = np.nonzero(is_max)[0] + 1
    if idx.size == 0:
        idx = np.array([int(np.argmax(v))])
    order = np.argsort(-v[idx], kind="stable")
    best_x, best_v = None, -np.inf
    for i in idx[order[:top_k]]:
        lo = t[i - 1] if i > 0 else a
        hi = t[i + 1] if i < t.size - 1 else b
        x, fx = golden_max(lambda s: float(f(s)), lo, hi, tol=xtol)
        if fx > best_v:
            best_x, best_v = x, fx
    for te, ve in zip((a, b), endpoint_values):
        if ve is not None and ve > best_v:
            best_x, best_v = te, ve
    return best_x, best_v


def bisect_root(f, a: float, b: float, tol: float = 1e-10):
    """Plain bisection; f(a) and f(b) must have opposite signs.

    Raises RuntimeError when the bracket is still wider than tol after
    BISECT_MAX_ITER halvings (only possible for tol below the spacing of
    floats near the root).
    """
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0:
        raise ValueError("bisect_root: no sign change on bracket")
    for _ in range(BISECT_MAX_ITER):
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0 or (b - a) < tol:
            return m
        if fa * fm < 0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    raise RuntimeError(f"bisect_root: bracket [{a!r}, {b!r}] still wider "
                       f"than tol = {tol} after {BISECT_MAX_ITER} halvings")


def newton_root(fdf, a: float, b: float, fa: float, fb: float,
                ftol: float = 0.0):
    """Root of f in the bracket [a, b] by Newton's method with bisection.

    fdf(x) returns (f(x), f'(x)) from one evaluation; a < b, and fa and fb
    are f(a) and f(b), of opposite signs. The first iterate interpolates the
    bracket linearly. A Newton step that leaves the bracket or does not
    halve the previous step is replaced by bisection. Returns after the
    Newton step from an iterate where |f| <= ftol (the rounding error of f)
    or where the step is below 4 ulp; raises RuntimeError after
    NEWTON_MAX_ITER steps.
    """
    if fa * fb > 0:
        raise ValueError("newton_root: no sign change on bracket")
    x = a + (b - a) * fa / (fa - fb)
    step_old = b - a
    for _ in range(NEWTON_MAX_ITER):
        fx, dfx = fdf(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == (fa < 0.0):
            a, fa = x, fx
        else:
            b = x
        step = fx / dfx if dfx != 0.0 else np.inf
        tol = 4.0 * np.spacing(abs(x))
        x_new = x - step
        if abs(step) <= tol or abs(fx) <= ftol:
            return x_new if a <= x_new <= b else x
        if not a < x_new < b or abs(step) > 0.5 * step_old:
            x_new = 0.5 * (a + b)
        step_old = abs(x_new - x)
        if step_old <= tol:
            return x_new
        x = x_new
    raise RuntimeError(f"newton_root: no convergence in [{a!r}, {b!r}] "
                       f"after {NEWTON_MAX_ITER} steps")
