"""Numerical helper tests against closed-form optima, quadrature rules and
exact solutions of linear ODEs."""
from __future__ import annotations

import math
import traceback
from functools import reduce
from operator import add, mul

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magflow import numerics
from magflow.numerics import (
    StepSizeError,
    _A,
    _B,
    _C,
    _E3,
    _E5,
    _EXTENDED,
    _STAGES,
    _initial_step,
    _kernel,
    _step,
    dop853,
    gauss_nodes,
    grid_sup,
    newton_root,
)


class TestGaussNodes:
    def test_polynomial_exactness(self):
        # degree 2n-1 polynomials integrate exactly on [0, 1]
        x, w = gauss_nodes(6)
        for k in range(12):
            assert np.dot(w, x**k) == pytest.approx(1.0 / (k + 1), rel=1e-13)

    def test_nodes_interior_and_weights_positive(self):
        x, w = gauss_nodes(32)
        assert np.all((x > 0) & (x < 1))
        assert np.all(w > 0)
        assert np.sum(w) == pytest.approx(1.0, rel=1e-14)

    def test_cached_identity(self):
        assert gauss_nodes(16)[0] is gauss_nodes(16)[0]


class TestGridSup:
    def test_multimodal(self):
        # two humps; frozen oracle from an independent bounded minimizer
        f = lambda t: np.exp(-20 * (t - 0.21) ** 2) + 1.3 * np.exp(
            -30 * (t - 0.77) ** 2)
        x, v = grid_sup(f, 0.0, 1.0, n=512)
        assert x == pytest.approx(0.769451508351757, abs=1e-7)
        assert v == pytest.approx(1.301900048567712, rel=1e-12)

    def test_endpoint_value_wins(self):
        f = lambda t: np.cos(t)
        x, v = grid_sup(f, 0.0, 1.0, n=128, endpoint_values=(2.0, None))
        assert x == 0.0 and v == 2.0

    def test_mirror_tie_takes_smaller_abscissa(self):
        # twin humps whose refined maxima differ by roundoff: the sup is
        # the larger value, its abscissa the smaller one of the pair
        for lift in (0.0, 1e-15, -1e-15):
            f = lambda t, lift=lift: (np.exp(-40 * (t - 0.3) ** 2)
                                      + (1.0 + lift)
                                      * np.exp(-40 * (t - 0.7) ** 2))
            x, v = grid_sup(f, 0.0, 1.0, n=256)
            assert x < 0.5
            assert v >= float(f(x)) >= v - 1e-12
            assert v >= float(f(1.0 - x)) >= v - 1e-12

    def test_monotone_no_interior_max(self):
        x, v = grid_sup(lambda t: np.asarray(t), 0.0, 1.0, n=64)
        assert v == pytest.approx(1.0, abs=1e-2)

    def test_sine_peak(self):
        # a comparison-based search stops at sqrt(eps) near a quadratic top
        x, v = grid_sup(np.sin, 0.0, np.pi, n=64)
        assert x == pytest.approx(np.pi / 2, abs=1e-7)
        assert v == pytest.approx(1.0, abs=1e-14)

    def test_quadratic(self):
        # the peak lies off the grid's centre and off its points
        x, v = grid_sup(lambda t: -(t - 0.3) ** 2, -1.0, 1.0, n=100)
        assert x == pytest.approx(0.3, abs=1e-7)

    def test_unconverged_raises(self, monkeypatch):
        # no bracket gets narrower than SUP_XTOL = 0: never return the
        # value of an unrefined bracket
        monkeypatch.setattr(numerics, "SUP_XTOL", 0.0)
        with pytest.raises(RuntimeError):
            grid_sup(np.sin, 0.0, np.pi, n=64)

    def test_calls_f_with_arrays_only(self):
        # the grid, then one (brackets, 17) block per zoom round
        shapes = []

        def f(t):
            assert isinstance(t, np.ndarray)
            shapes.append(t.shape)
            return np.cos(8.0 * t)

        grid_sup(f, 0.0, 4.0, n=512)
        assert shapes[0] == (512,)
        assert len(shapes) > 1
        assert all(s == (numerics.SUP_TOP_K, 17) for s in shapes[1:])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.2, 0.8), st.floats(0.05, 0.3),
                              st.floats(0.5, 2.0)), min_size=1, max_size=3))
    def test_refines_above_the_best_cells(self, humps):
        # sums of Gaussian humps centred inside [0.2, 0.8] peak inside the
        # grid: the refined sup is at least a 4097-point sample of the two
        # grid cells around the best grid maximum
        def f(t):
            return sum(h * np.exp(-0.5 * ((t - c) / w) ** 2)
                       for c, w, h in humps)

        n = 256
        grid = np.linspace(0.0, 1.0, n + 2)
        i = int(np.argmax(f(grid[1:-1])))
        assert 0 < i < n - 1
        dense = np.max(f(np.linspace(grid[i], grid[i + 2], 4097)))
        _, v = grid_sup(f, 0.0, 1.0, n=n)
        assert v >= dense - 4.0 * np.spacing(dense)


class TestRoots:
    def test_newton_root(self):
        fdf = lambda t: (t**3 - 2.0, 3.0 * t * t)
        r = newton_root(fdf, 0.0, 2.0, -2.0, 6.0)
        assert r == pytest.approx(2.0 ** (1 / 3), abs=4e-16)
        with pytest.raises(ValueError):
            newton_root(fdf, 2.0, 3.0, 6.0, 25.0)

    def test_newton_root_falls_back_to_bisection(self):
        # f' = 0 at the start and steps that overshoot the bracket
        fdf = lambda t: (np.arctan(t - 0.3) + 0.1 * (t - 0.3), 0.0)
        r = newton_root(fdf, -5.0, 5.0, fdf(-5.0)[0], fdf(5.0)[0])
        assert r == pytest.approx(0.3, abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(root=st.floats(-2.0, 2.0), below=st.floats(1e-3, 3.0),
           above=st.floats(1e-3, 3.0), steep=st.floats(0.1, 50.0),
           cubic=st.floats(0.0, 5.0), flip=st.booleans())
    def test_secant_matches_brentq(self, root, below, above, steep, cubic,
                                   flip):
        # without a derivative the step is the secant's; on monotone
        # functions with random brackets it lands where brentq at xtol
        # 1e-15 does, to the roundoff of f over its slope
        from scipy.optimize import brentq
        sign = -1.0 if flip else 1.0

        def f(x):
            return sign * (math.tanh(steep * (x - root))
                           + cubic * (x - root) ** 3)
        a, b = root - below, root + above
        x = newton_root(lambda x: (f(x), None), a, b, f(a), f(b))
        want = brentq(f, a, b, xtol=1e-15, rtol=4 * np.finfo(float).eps)
        assert a <= x <= b
        assert abs(x - want) <= 1e-14 / min(steep, 1.0)

    def test_secant_falls_back_to_bisection(self):
        # on a cube root the secant through the second and third iterates
        # leaves the bracket [-0.7, x1]: the third iterate is its midpoint
        calls = []

        def f(x):
            calls.append(x)
            return float(np.cbrt(x - 0.3))
        fa, fb = f(-0.7), f(8.3)
        calls.clear()
        r = newton_root(lambda x: (f(x), None), -0.7, 8.3, fa, fb)
        assert calls[0] == 2.3 and calls[1] > 0.3
        assert calls[2] == 0.5 * (-0.7 + calls[1])
        assert r == pytest.approx(0.3, abs=1e-15)
        assert len(calls) < numerics.NEWTON_MAX_ITER

    @pytest.mark.parametrize("exact", [False, True])
    def test_root_at_zero_stops_on_the_bracket_floor(self, exact):
        # a cube root's root at 0 has no ulp for the 4-ulp stop to reach,
        # and the steps there leave the bracket: bisection meets the floor
        # of 1 ulp of the bracket's width, with the secant and with f'
        calls = []

        def fdf(x):
            calls.append(x)
            c = float(np.cbrt(x))
            return c, (1.0 / (3.0 * c * c) if c else math.inf) if exact \
                else None
        r = newton_root(fdf, -1.0, 2.0, -1.0, float(np.cbrt(2.0)))
        assert abs(r) <= np.spacing(3.0)
        assert len(calls) < numerics.NEWTON_MAX_ITER


class TestDop853:
    @staticmethod
    def oscillator(calls):
        def fun(t, y):
            calls.append(t)
            return (y[1], -y[0])
        return fun

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_harmonic_oscillator(self, sign):
        # y = (cos t, -sin t) exactly, forward and backward in time
        calls = []
        s = sign * np.linspace(0.0, 10.0, 41)
        run = dop853(self.oscillator(calls), 0.0, (1.0, 0.0), sign * 10.0, s)
        assert np.array_equal(run.t, s)
        assert np.max(np.abs(run.y[:, 0] - np.cos(s))) < 1e-10
        assert np.max(np.abs(run.y[:, 1] + np.sin(s))) < 1e-10
        assert run.t_end == sign * 10.0 and not run.terminated
        assert run.y_end == pytest.approx((np.cos(10.0), -np.sin(sign * 10.0)),
                                          abs=1e-10)
        # every call counts: initial slope, step probe, 12 per step and 3
        # per step that holds output points
        assert run.nfev == len(calls)

    @pytest.mark.parametrize("direction, root", [
        (-1.0, 0.5 * np.pi), (1.0, 1.5 * np.pi), (0.0, 0.5 * np.pi),
        (-1.0, -0.5 * np.pi), (1.0, -1.5 * np.pi), (0.0, -0.5 * np.pi)])
    def test_terminal_event_on_the_interpolant(self, direction, root):
        # y[0] = cos t, run to 10 or back to -10, the sign of root: backward
        # a step brackets the event with its end below its start, and
        # direction reads the sign change along the run
        sign = math.copysign(1.0, root)
        calls = []
        s = sign * np.linspace(0.0, 10.0, 101)
        run = dop853(self.oscillator(calls), 0.0, (1.0, 0.0), sign * 10.0, s,
                     event=lambda t, y: y[0], direction=direction)
        assert run.terminated
        assert run.t_end == pytest.approx(root, abs=1e-12)
        assert abs(run.y_end[0]) < 1e-12
        assert np.array_equal(run.t, s[sign * s <= sign * run.t_end])
        assert run.nfev == len(calls)

    @pytest.mark.parametrize("direction, root", [
        (0.0, np.pi), (1.0, np.pi), (-1.0, 2.0 * np.pi)])
    def test_start_on_the_event_surface_is_no_crossing(self, direction,
                                                       root):
        # y[1] = -sin t is 0 at the start, falls, rises through 0 at pi and
        # falls through it at 2 pi: the run stops at the next crossing
        calls = []
        run = dop853(self.oscillator(calls), 0.0, (1.0, 0.0), 10.0,
                     event=lambda t, y: y[1], direction=direction)
        assert run.terminated
        assert run.t_end == pytest.approx(root, abs=1e-12)

    @pytest.mark.parametrize("t0, t1, rtol, atol", [
        (math.nan, 1.0, 1e-12, 1e-14), (0.0, math.inf, 1e-12, 1e-14),
        (0.0, -math.inf, 1e-12, 1e-14), (0.0, math.nan, 1e-12, 1e-14),
        (0.0, 1.0, -1.0, 1e-14), (0.0, 1.0, math.nan, 1e-14),
        (0.0, 1.0, math.inf, 1e-14), (0.0, 1.0, 1e-12, 0.0),
        (0.0, 1.0, 0.0, 0.0), (0.0, 1.0, 1e-12, -1e-14),
        (0.0, 1.0, 1e-12, math.nan), (0.0, 1.0, 1e-12, math.inf)])
    def test_refuses_what_it_cannot_integrate(self, t0, t1, rtol, atol):
        # an error weight of 0 divided by zero in the initial step, a
        # negative one integrated wrongly, an infinite span never ended:
        # fun raises on its first call, so that none of them can run on
        calls = []

        def fun(t, y):
            calls.append(t)
            raise RuntimeError("fun called")
        with pytest.raises(ValueError, match=r"dop853: needs finite t0, t1, "
                                             r"rtol >= 0, atol > 0"):
            dop853(fun, t0, (1.0, 0.0), t1, rtol=rtol, atol=atol)
        assert calls == []

    def test_relative_tolerance_zero_runs(self):
        run = dop853(self.oscillator([]), 0.0, (1.0, 0.0), 1.0, rtol=0.0,
                     atol=1e-12)
        assert run.y_end == pytest.approx((np.cos(1.0), -np.sin(1.0)),
                                          abs=1e-10)

    def test_angle_weight_is_fixed(self):
        # theta' = cos t from theta = 1000: scipy's weight rtol |theta|
        # loosens the tolerance a thousandfold, the fixed weight does not
        def fun(t, y):
            return (np.cos(t),)
        err = {}
        for angles in ((), (0,)):
            run = dop853(fun, 0.0, (1000.0,), 50.0, angles=angles)
            err[angles] = abs(run.y_end[0] - 1000.0 - np.sin(50.0))
        assert err[(0,)] < 1e-12 < 1e-11 < err[()]

    def test_nan_at_t0_raises_at_once(self):
        calls = []

        def fun(t, y):
            calls.append(t)
            return (1.0, float("nan"))
        with pytest.raises(StepSizeError, match=r"not finite at an accepted "
                                                r"state, component 1 = nan "
                                                r"at t = 0\.0"):
            dop853(fun, 0.0, (1.0, 2.0), 1.0)
        assert len(calls) <= 1

    def test_nan_at_an_accepted_state_raises_at_once(self):
        # the last stage of a step, at its end, is not in the error
        # estimate: call 14 (initial slope, step probe, 12 per step) is the
        # last of the first step, which is accepted; the second step's
        # first trial is rejected and raises
        calls = []

        def fun(t, y):
            calls.append(t)
            return (float("nan") if len(calls) == 14 else -y[0],)
        with pytest.raises(StepSizeError, match="not finite at an accepted "
                                                "state, component 0 = nan") \
                as info:
            dop853(fun, 0.0, (1.0,), 1.0)
        assert str(info.value).endswith(f"t = {calls[13]!r}")
        assert len(calls) == 14 + 12

    def test_collapse_names_the_nonfinite_stage(self):
        # NaN past t = 0.25: steps are rejected until h collapses below the
        # spacing of floats just short of 0.25
        def fun(t, y):
            return (float("nan") if t >= 0.25 else -y[0],)
        with pytest.raises(StepSizeError, match=r"step size below .* "
                           r"non-finite right-hand side, first component 0 "
                           r"= nan at t = 0\.25"):
            dop853(fun, 0.0, (1.0,), 1.0)

    def test_empty_span(self):
        run = dop853(lambda t, y: (1.0,), 2.0, (3.0,), 2.0, [2.0, 2.0])
        assert run.y.tolist() == [[3.0], [3.0]] and run.nfev == 0


# every tableau row the stepper sums: the stages after the first, the
# dense-output stages, the solution and the two error estimates
_ROWS = [_A[s] for s in range(1, _EXTENDED)] + [_B, _E5, _E3]


def _reference_combine(y, h, rule, K):
    """y + h * sum_j c_j K_j over the nonzero terms, added left to right
    from 0 as sum(map(mul, coef, col)) does up to Python 3.11; from 3.12
    sum() compensates float sums, so the reference spells the plain one."""
    idx, coef = rule
    return [yi + h * reduce(add, map(mul, coef, col), 0)
            for yi, col in zip(y, zip(*[K[j] for j in idx]))]


_FLOATS = st.floats(-1e100, 1e100, allow_nan=False)


class TestTableau:
    def test_equals_scipy_value_for_value(self):
        # the constants against scipy's arrays, zeros included, with ==;
        # scipy is only the oracle here
        from scipy.integrate._ivp import dop853_coefficients as dop
        assert (numerics._STAGES, numerics._EXTENDED) == (
            dop.N_STAGES, dop.N_STAGES_EXTENDED)
        assert list(numerics._C) == dop.C.tolist()
        for s, row in enumerate(numerics._A_ROWS):
            assert list(row) == dop.A[s, :s].tolist()
            assert not np.any(dop.A[s, s:])
        assert list(numerics._A_ROWS[numerics._STAGES]) == dop.B.tolist()
        assert list(numerics._E3_ROW) == dop.E3.tolist()
        assert list(numerics._E5_ROW) == dop.E5.tolist()
        assert numerics._D.tolist() == dop.D.tolist()


class TestKernels:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(range(len(_ROWS))), st.sampled_from([3, 4, 9]),
           st.data())
    def test_matches_reference_sum(self, row, n, data):
        # bitwise, up to the sign of zero: == treats 0.0 and -0.0 alike
        rule = _ROWS[row]
        vec = st.lists(_FLOATS, min_size=n, max_size=n)
        y, h = data.draw(vec), data.draw(_FLOATS)
        K = data.draw(st.lists(vec, min_size=max(rule[0]) + 1,
                               max_size=max(rule[0]) + 1))
        got = _kernel(rule, n)(y, h, K)
        assert type(got) is tuple and len(got) == n
        assert list(got) == _reference_combine(y, h, rule, K)

    def test_built_once_per_row_and_length(self):
        assert _kernel(_B, 5) is _kernel(_B, 5)
        assert _kernel(_B, 5) is not _kernel(_B, 6)


def _reference_step(fun, t, y, h, t_new, f, atol, rtol, fixed, angles):
    """The trial step as a loop over the kernels: the stages, y_new, the
    error weights and both sums of squares from 0, as the stepper ran it
    before the step was generated."""
    n = len(y)
    K = [f]
    for s in range(1, _STAGES):
        K.append(fun(t + _C[s] * h, _kernel(_A[s], n)(y, h, K)))
    y_new = _kernel(_B, n)(y, h, K)
    K.append(fun(t_new, y_new))
    w = [fixed if i in angles else atol + rtol * max(abs(a), abs(b))
         for i, (a, b) in enumerate(zip(y, y_new))]
    norms = [reduce(add, [(e / wi) ** 2 for e, wi in zip(
        _kernel(rule, n)((0.0,) * n, 1.0, K), w)], 0) for rule in (_E5, _E3)]
    return (y_new, K, *norms)


_MODERATE = st.floats(-1e3, 1e3, allow_nan=False)


class TestGeneratedStep:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([3, 4, 9]), st.sampled_from([(), (1, 2)]),
           st.data())
    def test_matches_the_kernel_loop(self, n, angles, data):
        # bitwise, up to the sign of zero: every stage's (t, y) argument,
        # y_new, the 13 stage tuples and both sums of squares
        vec = st.lists(_MODERATE, min_size=n, max_size=n)
        y, a, b = data.draw(vec), data.draw(vec), data.draw(vec)
        t, h = data.draw(_MODERATE), data.draw(st.floats(-10.0, 10.0))
        tol = st.floats(1e-16, 1e-3)
        atol, rtol = data.draw(tol), data.draw(tol)
        fixed = atol + rtol * math.pi

        def recording(calls):
            def fun(s, z):
                calls.append((s, z))
                return tuple(a[i] * z[(i + 1) % n] + b[i] * math.sin(s + i)
                             for i in range(n))
            return fun
        got, want = [], []
        f = recording([])(t, y)
        out = _step(n, angles)(recording(got), t, y, h, t + h, f, atol,
                               rtol, fixed)
        ref = _reference_step(recording(want), t, y, h, t + h, f, atol,
                              rtol, fixed, angles)
        assert got == want and len(got) == _STAGES
        assert type(out[0]) is tuple and type(out[1]) is list
        assert out[0] == ref[0] and out[1] == ref[1]
        assert len(out[1]) == _STAGES + 1
        assert out[2:] == ref[2:]

    def test_built_once_per_length_and_angles(self):
        assert _step(6, (4,)) is _step(6, (4,))
        assert _step(6, (4,)) is not _step(6, ())
        assert _step(6, (4,)) is not _step(7, (4,))
        # a second run with the same length and angles builds nothing
        counts = []
        for _ in range(2):
            dop853(lambda t, y: (y[1], -y[0], 0.0, 0.0, 1.0), 0.0,
                   (1.0, 0.0, 0.0, 0.0, 0.0), 1.0, angles=[4, 7])
            counts.append(_step.cache_info())
        assert counts[1].misses == counts[0].misses
        assert counts[1].hits == counts[0].hits + 1
        assert _step(5, (4,)) is _step(5, (4,))

    def test_traceback_shows_the_generated_stage(self):
        # an error raised by the right-hand side at stage 5 passes through
        # the generated step, whose line the traceback prints
        calls = []

        def fun(t, y):
            calls.append(t)
            if len(calls) == 7:    # initial slope, step probe, stages 1-5
                raise RuntimeError("stage 5")
            return (y[1], -y[0])
        with pytest.raises(RuntimeError, match="stage 5"):
            try:
                dop853(fun, 0.0, (1.0, 0.0), 1.0)
            except RuntimeError:
                text = traceback.format_exc()
                raise
        assert "<dop853 step, n=2, angles=() #" in text
        assert f"K5 = fun(t + {_C[5]!r} * h, (y0 + h * (" in text

    def test_traceback_shows_the_generated_kernel(self):
        with pytest.raises(ValueError):
            try:
                _kernel(_A[13], 3)([0.0] * 3, 1.0, [(1.0, 2.0)] * 13)
            except ValueError:
                text = traceback.format_exc()
                raise
        assert "<dop853 stage sum over K[0, 6, 7" in text
        assert "k0_0, k0_1, k0_2, = K[0]" in text


class TestInitialStep:
    def test_norms_are_plain_sums(self):
        # the squares of y0 sum to 1e-6 left to right from 0, and to one
        # ulp more when compensated (sum() from Python 3.12); the first
        # step, 100 h0 = 100 * 0.01 * rms(y0) here, shows which was used
        y0, f0 = [1e-3, 1e-11, 1e-11], [1.0, 1.0, 1.0]

        def rms(total):
            return math.sqrt(total / 3)
        squares = [x * x for x in y0]
        assert reduce(add, squares, 0) != math.fsum(squares)
        h = _initial_step(lambda t, y: f0, 0.0, y0, f0, 1.0, 1.0, [1.0] * 3)
        assert h == 100.0 * (0.01 * rms(reduce(add, squares, 0)) / 1.0)
        assert h != 100.0 * (0.01 * rms(math.fsum(squares)) / 1.0)
