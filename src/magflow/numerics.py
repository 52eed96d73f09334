"""Small numerical helpers shared across modules.

Grid-plus-golden-section extremum search, bracketed root finding by
bisection and by safeguarded Newton steps, cached Gauss-Legendre nodes, and
the DOP853 stepper that every ODE of the package integrates with: the
flow, its level sections and the linearized flow behind the
Conley-Zehnder indices. The stepper's stage sums are straight-line
functions generated once per (tableau row, state length). Everything here
is deterministic: fixed grids, fixed iteration budgets, ties broken toward
smaller abscissae.
"""
from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate._ivp import dop853_coefficients as _dop
from scipy.optimize import brentq

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


# -- DOP853 ---------------------------------------------------------------------
#
# Dormand & Prince's 8(5,3) pair with its 7th-order dense output (Hairer,
# Norsett & Wanner, Solving ODEs I, II.10), tableau from scipy. The step
# control is scipy's: SAFETY 0.9, factors 0.2 to 10, exponent -1/8, the E5/E3
# error norm, no growth right after a rejection.

def _nonzero(row):
    """(indices, coefficients) of the nonzero entries of a tableau row."""
    idx = tuple(int(j) for j in np.flatnonzero(row))
    return idx, tuple(float(row[j]) for j in idx)


_STAGES = _dop.N_STAGES                 # 12 stages per step
_EXTENDED = _dop.N_STAGES_EXTENDED      # and 4 more for the dense output
_C = tuple(float(c) for c in _dop.C)
_A = tuple(_nonzero(_dop.A[s, :s]) for s in range(_EXTENDED))
_B = _nonzero(_dop.B)
_E5, _E3 = _nonzero(_dop.E5), _nonzero(_dop.E3)


@lru_cache(maxsize=None)
def _kernel(rule, n: int):
    """y + h * sum_j c_j K_j over the nonzero (j, c_j) of rule, for states
    of length n, as one generated function kernel(y, h, K) -> tuple.

    The code is straight-line: every component is written out, and so is
    its sum over j, left to right with the coefficients as repr floats.
    That is the order and rounding of a plain sum from 0, which is what
    sum(map(mul, coef, col)) computes up to Python 3.11, so a kernel agrees
    with that loop bitwise, up to the sign of a zero sum.
    """
    idx, coef = rule
    lines = ["def kernel(y, h, K):",
             "    " + "".join(f"y{i}, " for i in range(n)) + "= y"]
    lines += ["    " + "".join(f"k{j}_{i}, " for i in range(n)) + f"= K[{j}]"
              for j in idx]
    terms = [" + ".join(f"{c!r} * k{j}_{i}" for j, c in zip(idx, coef))
             for i in range(n)]
    lines.append("    return (" + "".join(f"y{i} + h * ({terms[i]}), "
                                         for i in range(n)) + ")")
    namespace = {}
    exec("\n".join(lines), namespace)
    return namespace["kernel"]


def _dense(rec, step, s, n):
    """Dense output of stored steps at the points s, point k on the step
    rec[step[k]]. A row of rec holds t_old, h, y_old, y_new and the 16
    stages K_0..K_15 of one step."""
    h = rec[:, 1:2]
    y_old, y_new = rec[:, 2:2 + n], rec[:, 2 + n:2 + 2 * n]
    K = rec[:, 2 + 2 * n:].reshape(len(rec), _EXTENDED, n)
    dy = y_new - y_old
    F = [dy, h * K[:, 0] - dy, 2.0 * dy - h * (K[:, _STAGES] + K[:, 0])]
    F += list(h[None] * np.einsum("rj,kjn->rkn", _dop.D, K))
    x = ((s - rec[step, 0]) / rec[step, 1])[:, None]
    y = np.zeros((len(s), n))
    for i, f in enumerate(reversed(F)):
        y += f[step]
        y *= x if i % 2 == 0 else 1.0 - x
    return y + y_old[step]


class StepSizeError(RuntimeError):
    """The DOP853 step size fell below the spacing of floats at t, or the
    right-hand side is not finite at an accepted state."""


@dataclass(frozen=True)
class OdeRun:
    """One DOP853 run: y[k] is the state at t[k] for each t_eval point the
    run reached; (t_end, y_end) is the last state, at the terminal event
    when terminated."""
    t: np.ndarray
    y: np.ndarray
    t_end: float
    y_end: tuple
    nfev: int
    terminated: bool


def dop853(fun, t0: float, y0, t1: float, t_eval=(), rtol: float = 1e-12,
           atol: float = 1e-14, angles=(), event=None,
           direction: float = 0.0) -> OdeRun:
    """Integrate y' = fun(t, y) from t0 to t1 (either direction) by DOP853.

    fun takes a sequence of floats and returns one. The error weight of
    component i is atol + rtol * max(|y_i|, |y_new_i|), scipy's, except for
    the components listed in angles, which get atol + rtol * pi: an angle
    that grows without bound would otherwise loosen its own tolerance as it
    grows. A step size that falls below ten float spacings of t raises
    StepSizeError, naming the first non-finite stage value of the rejected
    steps; a right-hand side that is not finite at an accepted state raises
    it at once. t_eval points must be ordered from t0 toward t1;
    the steps that contain them are kept and their dense output is
    evaluated in one numpy pass at the end. event(t, y), when given, is
    terminal: the run stops at the first root of event along the step's
    interpolant whose sign change agrees with direction (0: either), found
    by brentq like scipy's. nfev counts every call of fun, including the
    initial-step probe and the three dense-output stages of a step.
    """
    y = [float(v) for v in y0]
    n = len(y)
    t_eval = [float(s) for s in t_eval]
    if t1 == t0:
        return OdeRun(np.array(t_eval), np.tile(y, (len(t_eval), 1)),
                      t0, tuple(y), 0, False)
    d = 1.0 if t1 > t0 else -1.0
    keys = [d * s for s in t_eval]
    fixed = atol + rtol * math.pi
    weights = [fixed if i in angles else None for i in range(n)]

    def scale(ya, yb):
        return [w if w is not None else atol + rtol * max(abs(a), abs(b))
                for w, a, b in zip(weights, ya, yb)]

    zero = (0.0,) * n
    stages = [(_C[s], _kernel(_A[s], n)) for s in range(1, _STAGES)]
    advance, e5_sum, e3_sum = (_kernel(rule, n) for rule in (_B, _E5, _E3))
    t, f = t0, fun(t0, y)
    _nonfinite([f], t, 0.0)
    h_abs = _initial_step(fun, t0, y, f, t1, d, scale(y, y))
    nfev = 2
    g = event(t0, y) if event is not None else None
    rows, counts, done, terminated = array("d"), [], 0, False
    while d * (t - t1) < 0.0:
        min_step = 10.0 * abs(math.nextafter(t, d * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected, nonfinite = False, ""
        while True:
            if h_abs < min_step:
                raise StepSizeError(f"dop853: step size below {min_step:.3g}"
                                    f" at t = {t!r}{nonfinite}")
            t_new = t + d * h_abs
            if d * (t_new - t1) > 0.0:
                t_new = t1
            h = t_new - t
            h_abs = abs(h)
            K = [f]
            for c, stage in stages:
                K.append(fun(t + c * h, stage(y, h, K)))
            y_new = advance(y, h, K)
            K.append(fun(t_new, y_new))
            nfev += _STAGES
            sc = scale(y, y_new)
            e5, e3 = e5_sum(zero, 1.0, K), e3_sum(zero, 1.0, K)
            n5 = sum((e / w) ** 2 for e, w in zip(e5, sc))
            n3 = sum((e / w) ** 2 for e, w in zip(e3, sc))
            err = (0.0 if n5 == 0.0 and n3 == 0.0 else
                   h_abs * n5 / math.sqrt((n5 + 0.01 * n3) * n))
            if err < 1.0:
                factor = 10.0 if err == 0.0 else min(10.0,
                                                     0.9 * err ** -0.125)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            if not math.isfinite(err):
                nonfinite = nonfinite or _nonfinite(K, t, h)
            h_abs *= max(0.2, 0.9 * err ** -0.125)
            rejected = True
        row = None
        t_old, y_old, t, y, f = t, y, t_new, y_new, K[_STAGES]
        if event is not None:
            g_new = event(t, y)
            if ((direction >= 0.0 and g <= 0.0 <= g_new)
                    or (direction <= 0.0 and g >= 0.0 >= g_new)):
                row, nfev = _step_row(fun, t_old, h, y_old, y, K), nfev + 3
                one, first = np.array([row]), np.zeros(1, dtype=int)

                def at(s):
                    return _dense(one, first, np.array([s]), n)[0]
                t = brentq(lambda s: event(s, at(s)), t_old, t,
                           xtol=4 * np.finfo(float).eps,
                           rtol=4 * np.finfo(float).eps)
                y, terminated = at(t).tolist(), True
            g = g_new
        reached = bisect_right(keys, d * t)
        if reached > done:
            if row is None:
                row, nfev = _step_row(fun, t_old, h, y_old, y, K), nfev + 3
            rows.extend(row)
            counts.append(reached - done)
            done = reached
        if terminated:
            break
    rec = np.frombuffer(rows, dtype=float).reshape(-1, 2 + (2 + _EXTENDED) * n)
    step = np.repeat(np.arange(len(counts)), counts)
    s = np.array(t_eval[:done])
    return OdeRun(s, _dense(rec, step, s, n), t, tuple(y), nfev, terminated)


def _nonfinite(K, t, h):
    """Where the first non-finite value among the stages K of a step from t
    by h lies, as a clause of a StepSizeError message, empty if none. A
    non-finite first stage, the right-hand side at the accepted state, is
    raised at once: no step size can mend it."""
    for s, k in enumerate(K):
        for i, x in enumerate(k):
            if not math.isfinite(x):
                where = f"component {i} = {x!r} at t = {t + _C[s] * h!r}"
                if s == 0:
                    raise StepSizeError(f"dop853: right-hand side not finite"
                                        f" at an accepted state, {where}")
                return f"; rejected steps met a non-finite right-hand side, " \
                       f"first {where}"
    return ""


def _step_row(fun, t, h, y, y_new, K):
    """One row for _dense: the step from (t, y) to y_new, with the three
    dense-output stages appended to its stages K."""
    n = len(y)
    for s in range(_STAGES + 1, _EXTENDED):
        K.append(fun(t + _C[s] * h, _kernel(_A[s], n)(y, h, K)))
    row = [t, h, *y, *y_new]
    for k in K:
        row.extend(k)
    return row


def _initial_step(fun, t0, y0, f0, t1, d, scale):
    """First step size (Hairer, Norsett & Wanner, Solving ODEs I, II.4),
    for an error estimator of order 7; one evaluation of fun."""
    def rms(v):
        return math.sqrt(sum(x * x for x in v) / len(v))
    span = abs(t1 - t0)
    d0 = rms([a / w for a, w in zip(y0, scale)])
    d1 = rms([a / w for a, w in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = fun(t0 + h0 * d, [a + h0 * d * b for a, b in zip(y0, f0)])
    d2 = rms([(b - a) / w for a, b, w in zip(f0, f1, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.125
    return min(100.0 * h0, h1, span)
