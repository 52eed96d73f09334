"""Numerical helper tests against closed-form optima, quadrature rules and
exact solutions of linear ODEs."""
from __future__ import annotations

from functools import reduce
from operator import add, mul

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magflow.numerics import (
    GOLDEN,
    StepSizeError,
    _A,
    _B,
    _E3,
    _E5,
    _EXTENDED,
    _kernel,
    bisect_root,
    dop853,
    gauss_nodes,
    golden_max,
    grid_sup,
    newton_root,
)


def test_golden_constant_is_inverse_ratio():
    assert GOLDEN == pytest.approx((np.sqrt(5) - 1) / 2)
    assert GOLDEN * (GOLDEN + 1) == pytest.approx(1.0)


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


class TestGoldenMax:
    def test_sine_peak(self):
        # comparison-based search plateaus at sqrt(eps) near a quadratic top
        x, v = golden_max(np.sin, 0.0, np.pi, tol=1e-12)
        assert x == pytest.approx(np.pi / 2, abs=1e-7)
        assert v == pytest.approx(1.0, abs=1e-14)

    def test_quadratic(self):
        x, v = golden_max(lambda t: -(t - 0.3) ** 2, -1.0, 1.0)
        assert x == pytest.approx(0.3, abs=1e-7)

    def test_unconverged_raises(self):
        # no bracket is narrower than tol = 0: never return the midpoint
        with pytest.raises(RuntimeError):
            golden_max(np.sin, 0.0, np.pi, tol=0.0)


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

    def test_monotone_no_interior_max(self):
        x, v = grid_sup(lambda t: np.asarray(t), 0.0, 1.0, n=64)
        assert v == pytest.approx(1.0, abs=1e-2)


class TestRoots:
    def test_bisect_root(self):
        r = bisect_root(lambda t: t**3 - 2.0, 0.0, 2.0, tol=1e-12)
        assert r == pytest.approx(2.0 ** (1 / 3), abs=1e-10)

    def test_bisect_unconverged_raises(self):
        # no float bracket around the jump at 1/3 is narrower than tol = 0
        step = lambda t: -1.0 if t < 1.0 / 3.0 else 1.0
        with pytest.raises(RuntimeError):
            bisect_root(step, 0.0, 1.0, tol=0.0)

    def test_bisect_requires_bracket(self):
        with pytest.raises(ValueError):
            bisect_root(lambda t: t * t + 1.0, -1.0, 1.0)

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

    @pytest.mark.parametrize("direction, root", [(-1.0, 0.5 * np.pi),
                                                 (1.0, 1.5 * np.pi),
                                                 (0.0, 0.5 * np.pi)])
    def test_terminal_event_on_the_interpolant(self, direction, root):
        calls = []
        s = np.linspace(0.0, 10.0, 101)
        run = dop853(self.oscillator(calls), 0.0, (1.0, 0.0), 10.0, s,
                     event=lambda t, y: y[0], direction=direction)
        assert run.terminated
        assert run.t_end == pytest.approx(root, abs=1e-12)
        assert abs(run.y_end[0]) < 1e-12
        assert np.array_equal(run.t, s[s <= run.t_end])
        assert run.nfev == len(calls)

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
