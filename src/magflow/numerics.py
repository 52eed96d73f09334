"""Small numerical helpers shared across modules.

Grid-plus-zoom extremum search, bracketed root finding by
safeguarded Newton or secant steps, cached Gauss-Legendre nodes, and the
DOP853 stepper that every ODE of the package integrates with: the flow, its
level sections and the linearized flow behind the Conley-Zehnder
indices. The stepper's trial step (stages, solution, error norms) is one
straight-line function generated once per (state length, angle set), a
dense-output stage sum one per (tableau row, state length); _sum spells
every sum left to right, so results do not depend on the Python version,
and tracebacks show the generated lines. Everything here is
deterministic: fixed grids, fixed iteration budgets, ties broken toward
smaller abscissae.
"""
from __future__ import annotations

import linecache
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import count
from operator import add

import numpy as np

NEWTON_MAX_ITER = 100
SUP_TOP_K = 5           # grid maxima that grid_sup refines
SUP_XTOL = 1e-9         # and the abscissa tolerance it refines them to
_ZOOM = 16              # sample cells per bracket and zoom round
# grid_sup's tie width: the refined values of mirror maxima differ by up to
# about 100 ulp of the largest
SUP_TIE_RTOL = 1e-12


@lru_cache(maxsize=32)
def gauss_nodes(n: int):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def grid_sup(f, a: float, b: float, n: int, endpoint_values=(None, None)):
    """Supremum of f on [a, b] by dense grid plus a vectorized zoom.

    f must accept numpy arrays, and is only ever called with arrays. The
    grid has n uniform points over the open interval; endpoint_values, when
    given, stand in for f at a and b (useful when f is defined there only
    as a limit). The SUP_TOP_K largest interior local maxima of the grid
    values are refined together: each bracket starts as the two grid cells
    around its maximum, and each round samples every bracket at 17 points
    with one call of f and keeps the two sample cells around the bracket's
    largest sample, a shrink of 8. Once every bracket is narrower than
    SUP_XTOL, its largest sample in that round is its value; a round that
    does not narrow the widest bracket raises RuntimeError, so no bracket
    is left unrefined. Returns (argmax, sup):
    sup is the largest value, and argmax the smallest abscissa whose value
    ties it within SUP_TIE_RTOL, so mirror maxima that differ by roundoff
    report the same abscissa.
    """
    grid = np.linspace(a, b, n + 2)
    v = np.asarray(f(grid[1:-1]), dtype=float)
    interior = v[1:-1]
    is_max = (interior >= v[:-2]) & (interior >= v[2:])
    idx = np.nonzero(is_max)[0] + 1
    if idx.size == 0:
        idx = np.array([int(np.argmax(v))])
    idx = idx[np.argsort(-v[idx], kind="stable")[:SUP_TOP_K]]
    lo, hi = grid[idx], grid[idx + 2]
    rows = np.arange(idx.size)
    while True:
        s = np.linspace(lo, hi, _ZOOM + 1, axis=1)
        fs = np.asarray(f(s), dtype=float)
        j = np.argmax(fs, axis=1)
        width = float(np.max(hi - lo))
        if width < SUP_XTOL:
            break
        k = np.clip(j, 1, _ZOOM - 1)
        lo, hi = s[rows, k - 1], s[rows, k + 1]
        if not np.max(hi - lo) < width:
            raise RuntimeError(f"grid_sup: a bracket of width {width!r} did "
                               f"not narrow toward SUP_XTOL = {SUP_XTOL}")
    found = list(zip(s[rows, j].tolist(), fs[rows, j].tolist()))
    found += [(te, ve) for te, ve in zip((a, b), endpoint_values)
              if ve is not None]
    best = max(fx for _, fx in found)
    floor = best - SUP_TIE_RTOL * max(1.0, abs(best))
    return min(x for x, fx in found if fx >= floor), best


def newton_root(fdf, a: float, b: float, fa: float, fb: float,
                ftol: float = 0.0):
    """Root of f in the bracket [a, b] by Newton's method with bisection.

    fdf(x) returns (f(x), f'(x)) from one evaluation, or (f(x), None) to
    step along the secant through the last two iterates instead, the end
    of smaller |f| preceding the first (Dekker's method; docs/decisions.md,
    entry 23). a < b, and fa and fb are f(a) and f(b), of opposite signs.
    The first iterate interpolates the bracket linearly. A step that leaves
    the bracket or does not halve the step before last is replaced by
    bisection. Returns after the step from an iterate where |f| <= ftol
    (the rounding error of f) or a step below 4 ulp of x or 1 of b - a,
    a floor for roots at 0; raises RuntimeError after NEWTON_MAX_ITER steps.
    """
    if fa * fb > 0:
        raise ValueError("newton_root: no sign change on bracket")
    x = a + (b - a) * fa / (fa - fb) if fa != 0.0 else a
    x_old, f_old = (a, fa) if abs(fa) < abs(fb) else (b, fb)
    width = step_old = step_older = b - a
    for _ in range(NEWTON_MAX_ITER):
        fx, dfx = fdf(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == (fa < 0.0):
            a, fa = x, fx
        else:
            b = x
        if dfx is None:
            dfx = (fx - f_old) / (x - x_old) if x != x_old else 0.0
            x_old, f_old = x, fx
        step = fx / dfx if dfx != 0.0 else np.inf
        tol = max(4.0 * math.ulp(x), math.ulp(width))
        x_new = x - step
        if abs(step) <= tol or abs(fx) <= ftol:
            return x_new if a <= x_new <= b else x
        if not a < x_new < b or abs(step) > 0.5 * step_older:
            x_new = 0.5 * (a + b)
        step_older, step_old = step_old, abs(x_new - x)
        if step_old <= tol:
            return x_new
        x = x_new
    raise RuntimeError(f"newton_root: no convergence in [{a!r}, {b!r}] "
                       f"after {NEWTON_MAX_ITER} steps")


# -- DOP853 ---------------------------------------------------------------------
#
# Dormand & Prince's 8(5,3) pair with its 7th-order dense output (Hairer,
# Norsett & Wanner, Solving ODEs I, II.10). The tableau holds the values of
# scipy's dop853_coefficients: nodes C, stage rows A[s, :s] (row 12 is the
# step's weights B), error weights E5 and E3, dense-output rows D. The step
# control is scipy's: SAFETY 0.9, factors 0.2 to 10, exponent -1/8, the E5/E3
# error norm, no growth right after a rejection.

_STAGES, _EXTENDED = 12, 16   # stages of a step, and with the dense output's
_C = (
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
    0.7777777777777778
)
_A_LOWER = (  # the rows A[s, :s] one after the other
    0.05260015195876773, 0.0197250569845379, 0.0591751709536137,
    0.02958758547680685, 0.0, 0.08876275643042054, 0.2413651341592667, 0.0,
    -0.8845494793282861, 0.924834003261792, 0.037037037037037035, 0.0, 0.0,
    0.17082860872947386, 0.12546768756682242, 0.037109375, 0.0, 0.0,
    0.17025221101954405, 0.06021653898045596, -0.017578125,
    0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
    -0.015319437748624402, 0.008273789163814023, 0.6241109587160757, 0.0, 0.0,
    -3.3608926294469414, -0.868219346841726, 27.59209969944671,
    20.154067550477894, -43.48988418106996, 0.47766253643826434, 0.0, 0.0,
    -2.4881146199716677, -0.590290826836843, 21.230051448181193,
    15.279233632882423, -33.28821096898486, -0.020331201708508627,
    -0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
    -8.149787010746927, -18.52006565999696, 22.739487099350505,
    2.4936055526796523, -3.0467644718982196, 2.273310147516538, 0.0, 0.0,
    -10.53449546673725, -2.0008720582248625, -17.9589318631188,
    27.94888452941996, -2.8589982771350235, -8.87285693353063,
    12.360567175794303, 0.6433927460157636, 0.054293734116568765, 0.0, 0.0,
    0.0, 0.0, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
    0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
    0.04471061572777259, 0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.25350021021662483, -0.2462390374708025, -0.12419142326381637,
    0.15329179827876568, 0.00820105229563469, 0.007567897660545699, -0.008298,
    0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776,
    0.053541988307438566, -0.05492374857139099, 0.0, 0.0,
    -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456,
    0.1413124436746325, -0.42889630158379194, 0.0, 0.0, 0.0, 0.0,
    -4.697621415361164, 7.683421196062599, 4.06898981839711,
    0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
    2.9475147891527724, -9.15095847217987
)
_E5_ROW = (
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
    0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0
)
_E3_ROW = (
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, -0.4226823213237919,
    -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0
)
_D = np.reshape((
    -8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777,
    -3.0689499459498917, 2.38466765651207, 2.117034582445028,
    -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
    -0.08899033645133331, 18.148505520854727, -9.194632392478356,
    -4.436036387594894, 10.427508642579134, 0.0, 0.0, 0.0, 0.0,
    242.28349177525817, 165.20045171727028, -374.5467547226902,
    -22.113666853125306, 7.733432668472264, -30.674084731089398,
    -9.332130526430229, 15.697238121770845, -31.139403219565178,
    -9.35292435884448, 35.81684148639408, 19.985053242002433, 0.0, 0.0, 0.0,
    0.0, -387.0373087493518, -189.17813819516758, 527.8081592054236,
    -11.57390253995963, 6.8812326946963, -1.0006050966910838,
    0.7777137798053443, -2.778205752353508, -60.19669523126412,
    84.32040550667716, 11.99229113618279, -25.69393346270375, 0.0, 0.0, 0.0,
    0.0, -154.18974869023643, -231.5293791760455, 357.6391179106141,
    93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
    -43.53345659001114, 96.32455395918828, -39.17726167561544,
    -149.72683625798564
), (4, 16))

_A_ROWS = tuple(_A_LOWER[s * (s - 1) // 2:s * (s + 1) // 2]
                for s in range(_EXTENDED))


def _nonzero(row):
    """(indices, coefficients) of the nonzero entries of a tableau row."""
    idx = tuple(j for j, c in enumerate(row) if c != 0.0)
    return idx, tuple(row[j] for j in idx)


_A = tuple(_nonzero(row) for row in _A_ROWS)
_B = _A[_STAGES]
_E5, _E3 = _nonzero(_E5_ROW), _nonzero(_E3_ROW)


def _sum(rule, i):
    """sum_j c_j K_j[i] over the nonzero (j, c_j) of rule as source text,
    left to right, coefficients as repr floats, K_j[i] the local k{j}_{i}:
    the order and rounding of a plain sum from 0, so bitwise that loop's up
    to the sign of a zero sum. The one spelling of _kernel's and _step's."""
    idx, coef = rule
    return " + ".join(f"{c!r} * k{j}_{i}" for j, c in zip(idx, coef))


def _unpack(name, prefix, n):
    return "    " + "".join(f"{prefix}{i}, " for i in range(n)) + f"= {name}"


_generated = count()


@lru_cache(maxsize=None)
def _code(source, title):
    """source compiled under the filename <title #k> and registered with
    linecache, so that tracebacks through it show the generated line; one
    entry per distinct source, however many functions run it."""
    filename = f"<{title} #{next(_generated)}>"
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    return compile(source, filename, "exec")


def generated_function(lines, name, title, namespace):
    """The function name defined by the source lines, with globals
    namespace, which does not keep it: no reference cycle holds what the
    namespace holds once the function is dropped."""
    exec(_code("\n".join(lines) + "\n", title), namespace)
    return namespace.pop(name)


@lru_cache(maxsize=None)
def _kernel(rule, n: int):
    """y + h * sum_j c_j K_j over the nonzero (j, c_j) of rule, for states
    of length n, as one generated function kernel(y, h, K) -> tuple whose
    every component and sum is written out (_sum)."""
    lines = ["def kernel(y, h, K):", _unpack("y", "y", n)]
    lines += [_unpack(f"K[{j}]", f"k{j}_", n) for j in rule[0]]
    lines.append("    return (" + "".join(f"y{i} + h * ({_sum(rule, i)}), "
                                         for i in range(n)) + ")")
    return generated_function(
        lines, "kernel", f"dop853 stage sum over K{list(rule[0])}, n={n}", {})


@lru_cache(maxsize=None)
def _step(n: int, angles: tuple):
    """One DOP853 trial step, states of length n, the components angles
    weighted fixed, as one generated straight-line function step(fun, t, y,
    h, t_new, K0, atol, rtol, fixed) -> (y_new, [K0, .., K12], n5, n3): the
    11 stages, y_new, fun at (t_new, y_new) and the sums of squares of the
    E5 and E3 estimates over the error weights. Each stage tuple is unpacked
    once; E5 and E3 keep the kernels' form 0.0 + 1.0 * (sum) and the norms
    add left to right, so every value is the per-stage kernels' bitwise."""
    lines = ["def step(fun, t, y, h, t_new, K0, atol, rtol, fixed):",
             _unpack("y", "y", n), _unpack("K0", "k0_", n)]
    for s in range(1, _STAGES):
        lines.append(f"    K{s} = fun(t + {_C[s]!r} * h, (" + "".join(
            f"y{i} + h * ({_sum(_A[s], i)}), " for i in range(n)) + "))")
        lines.append(_unpack(f"K{s}", f"k{s}_", n))
    lines += [f"    u{i} = y{i} + h * ({_sum(_B, i)})" for i in range(n)]
    lines.append("    y_new = (" + "".join(f"u{i}, " for i in range(n)) + ")")
    lines.append(f"    K{_STAGES} = fun(t_new, y_new)")
    lines += [f"    w{i} = fixed" if i in angles else
              f"    w{i} = atol + rtol * max(abs(y{i}), abs(u{i}))"
              for i in range(n)]
    for name, rule in (("n5", _E5), ("n3", _E3)):
        lines.append(f"    {name} = " + " + ".join(
            f"((0.0 + 1.0 * ({_sum(rule, i)})) / w{i}) ** 2"
            for i in range(n)))
    lines.append("    return y_new, [" + "".join(
        f"K{s}, " for s in range(_STAGES + 1)) + "], n5, n3")
    return generated_function(
        lines, "step", f"dop853 step, n={n}, angles={angles}", {})


def _dense(rec, step, s, n):
    """Dense output of stored steps at the points s, point k on the step
    rec[step[k]]. A row of rec holds t_old, h, y_old, y_new and the 16
    stages K_0..K_15 of one step."""
    h = rec[:, 1:2]
    y_old, y_new = rec[:, 2:2 + n], rec[:, 2 + n:2 + 2 * n]
    K = rec[:, 2 + 2 * n:].reshape(len(rec), _EXTENDED, n)
    dy = y_new - y_old
    F = [dy, h * K[:, 0] - dy, 2.0 * dy - h * (K[:, _STAGES] + K[:, 0])]
    F += list(h[None] * np.einsum("rj,kjn->rkn", _D, K))
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

    fun takes a sequence of floats and returns one. t0, t1, rtol >= 0 and
    atol > 0 are finite, else ValueError. The error weight of component i is
    atol + rtol * max(|y_i|, |y_new_i|), scipy's, except for the components
    listed in angles, which get atol + rtol * pi: an angle that grows without
    bound would otherwise loosen its own tolerance as it grows. A step size
    that falls below ten float spacings of t raises StepSizeError, naming the
    first non-finite stage value of the rejected steps; a right-hand side that
    is not finite at an accepted state raises it at once. t_eval points must be
    ordered from t0 toward t1; the steps that contain them are kept and their
    dense output is evaluated in one numpy pass at the end. event(t, y), when
    given, is terminal: the run stops at the first root of event along the
    step's interpolant whose sign change agrees with direction (0: either),
    found by newton_root's secant; a sign change starts from a nonzero value,
    so a run that starts on the surface does not stop there. nfev counts every
    call of fun, including the initial-step probe and the three dense-output
    stages of a step.
    """
    if not (math.isfinite(t0) and math.isfinite(t1) and 0.0 <= rtol < math.inf
            and 0.0 < atol < math.inf):
        raise ValueError(f"dop853: needs finite t0, t1, rtol >= 0, atol > 0; "
                         f"got {t0!r}, {t1!r}, {rtol!r}, {atol!r}")
    y = [float(v) for v in y0]
    n = len(y)
    t_eval = [float(s) for s in t_eval]
    if t1 == t0:
        return OdeRun(np.array(t_eval), np.tile(y, (len(t_eval), 1)),
                      t0, tuple(y), 0, False)
    d = 1.0 if t1 > t0 else -1.0
    keys = [d * s for s in t_eval]
    fixed = atol + rtol * math.pi
    angles = tuple(i for i in range(n) if i in angles)
    trial = _step(n, angles)
    t, f = t0, fun(t0, y)
    _nonfinite([f], t, 0.0)
    h_abs = _initial_step(fun, t0, y, f, t1, d, [
        fixed if i in angles else atol + rtol * abs(a)
        for i, a in enumerate(y)])
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
            y_new, K, n5, n3 = trial(fun, t, y, h, t_new, f, atol, rtol,
                                     fixed)
            nfev += _STAGES
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
            if ((direction >= 0.0 and g < 0.0 <= g_new)
                    or (direction <= 0.0 and g > 0.0 >= g_new)):
                row, nfev = _step_row(fun, t_old, h, y_old, y, K), nfev + 3
                one = np.array([row])
                (a, ga), (b, gb) = sorted([(t_old, g), (t, g_new)])
                t = newton_root(lambda s: (event(s, _on_step(one, s, n)),
                                           None), a, b, ga, gb)
                y, terminated = _on_step(one, t, n).tolist(), True
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


def _on_step(one, s, n):
    """The dense output at s of the one stored step one."""
    return _dense(one, np.zeros(1, dtype=int), np.array([s]), n)[0]


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
        # left to right from 0 on every Python (sum() compensates from 3.12)
        return math.sqrt(reduce(add, [x * x for x in v], 0) / len(v))
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
