"""Direct flow integration tests.

Round-sphere orbits give exact references: latitudes are stationary in
(t, phi) with linear theta drift, the invariant is conserved to integrator
precision on every orbit, and level measurements taken by Poincare section
reproduce the closed-form period, winding, and action. Reversibility and
the quadrature cross-check are exercised on ellipsoids as well. scipy's
DOP853, which the package no longer uses, is the oracle for the stepper
the flow owns.
"""
from __future__ import annotations

import warnings
from collections import Counter

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from magflow.flow import (
    ANGLES,
    POLE_GUARD,
    Trajectory,
    band_state,
    compare_level,
    flow_rhs,
    integrate,
    level_average_ode,
)
from magflow.numerics import dop853
from magflow.profiles import (
    ProfileFunction,
    make_ellipsoid,
    make_sphere,
    parse_profile_spec,
)
from magflow.reduced import LevelRangeError, birkhoff_action, find_latitude


@pytest.fixture(scope="module")
def sphere():
    return make_sphere()


@pytest.fixture(scope="module")
def ellipsoid():
    return make_ellipsoid(1.3)


class TestVectorField:
    def test_components(self, sphere):
        m, t, phi = 2.0, 1.1, 0.4
        v = flow_rhs(sphere.point_jet(2), m)(0.0, (t, phi, 0.0))
        assert v[0] == pytest.approx(m * np.cos(phi))
        assert v[1] == pytest.approx(
            1.0 - m * np.cos(t) * np.sin(phi) / np.sin(t))
        assert v[2] == pytest.approx(m * np.sin(phi) / np.sin(t))


class TestConservation:
    def test_sphere_drift(self, sphere):
        traj = integrate(sphere, 1.0, (1.2, 0.3, 0.0), 100.0)
        assert traj.I_drift < 1e-9

    def test_random_triples(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            ratio = rng.uniform(0.6, 1.8)
            m = rng.uniform(0.3, 2.0)
            p = make_ellipsoid(ratio)
            t0 = rng.uniform(0.3, 0.7) * p.ell
            phi0 = rng.uniform(-np.pi, np.pi)
            traj = integrate(p, m, (t0, phi0, 0.0), 50.0)
            assert traj.I_drift < 1e-9

    def test_long_band_orbit(self):
        # inside criterion 5's domain; with scipy's relative error weight on
        # the unwrapped angles this drifted by 1.2e-8 at T = 1e3
        p = make_ellipsoid(1.456)
        traj = integrate(p, 1.898, (1.0929, 2.8189, 0.0), 1e3, n_out=101)
        assert not traj.pole_terminated
        assert traj.I_drift <= 1e-9

    def test_reversibility(self, ellipsoid):
        state0 = (1.0, 0.7, 0.2)
        fwd = integrate(ellipsoid, 0.8, state0, 30.0, n_out=3)
        end = (fwd.t[-1], fwd.phi[-1], fwd.theta[-1])
        back = integrate(ellipsoid, 0.8, end, -30.0, n_out=3)
        assert back.t[-1] == pytest.approx(state0[0], abs=1e-7)
        assert back.phi[-1] == pytest.approx(state0[1], abs=1e-7)
        assert back.theta[-1] == pytest.approx(state0[2], abs=1e-7)


def _scipy_oracle(p, m, state0, s_eval, **kw):
    def rhs(s, y):
        g, dg, _ = map(float, p.jet(y[0], 1))
        return (m * np.cos(y[1]), 1.0 - m * dg * np.sin(y[1]) / g,
                m * np.sin(y[1]) / g)
    return solve_ivp(rhs, (0.0, s_eval[-1]), state0, method="DOP853",
                     t_eval=s_eval, rtol=1e-12, atol=1e-14, **kw)


class TestScipyOracle:
    @pytest.mark.parametrize("spec", ["sphere", "ellipsoid"])
    def test_trajectory(self, spec, sphere, ellipsoid):
        p = {"sphere": sphere, "ellipsoid": ellipsoid}[spec]
        state0 = (0.4 * p.ell, 0.7, 0.0)
        traj = integrate(p, 1.1, state0, 20.0, n_out=201)
        ref = _scipy_oracle(p, 1.1, state0, traj.s)
        assert np.array_equal(ref.t, traj.s)
        got = np.stack([traj.t, traj.phi, traj.theta])
        assert np.max(np.abs(got - ref.y)) <= 1e-9

    def test_pole_termination_time(self, sphere):
        # the separatrix of TestPoleTermination, stopped by the pole guard:
        # the event is a root of the step's interpolant, as in scipy. The
        # guard is a distance in t, and gamma = t + O(t^3) at the pole, so a
        # guard on gamma stops the run at the same time
        t0 = 1.0
        g, G = sphere.jet(t0, 0)
        u = (1.0 + G) / (1.0 * g)
        state0 = (t0, np.pi - np.arcsin(u), 0.0)
        ell, guard = sphere.ell, POLE_GUARD * sphere.ell

        def pole(s, y):
            return min(y[0], ell - y[0]) - guard
        pole.terminal = True

        def gamma_pole(s, y):
            return float(sphere.gamma(np.clip(y[0], 0.0, ell))) - guard
        s_eval = np.linspace(0.0, 50.0, 2001)
        ref = _scipy_oracle(sphere, 1.0, state0, s_eval, events=pole)
        run, by_gamma = (dop853(flow_rhs(sphere.point_jet(2), 1.0), 0.0,
                                state0, 50.0, s_eval, angles=ANGLES,
                                event=event) for event in (pole, gamma_pole))
        assert run.terminated and by_gamma.terminated and ref.status == 1
        assert abs(run.t_end - ref.t_events[0][0]) < 1e-9
        assert abs(run.t_end - by_gamma.t_end) < 1e-12
        traj = integrate(sphere, 1.0, state0, 50.0)
        assert traj.pole_terminated
        assert np.array_equal(traj.s, ref.t)


class TestLatitudeOrbit:
    def test_stationary_with_linear_theta(self, sphere):
        m = 1.5
        lat = find_latitude(sphere, m, side="upper")
        traj = integrate(sphere, m, (lat.t0, np.pi / 2, 0.0), 10.0)
        assert np.max(np.abs(traj.t - lat.t0)) < 1e-9
        assert np.max(np.abs(traj.phi - np.pi / 2)) < 1e-9
        # theta rate is sqrt(1 + m^2) on the round sphere
        rate = np.sqrt(1 + m * m)
        assert np.max(np.abs(traj.theta - rate * traj.s)) < 1e-8

    def test_geometric_period(self, sphere):
        m = 1.5
        lat = find_latitude(sphere, m, side="upper")
        traj = integrate(sphere, m, (lat.t0, np.pi / 2, 0.0), lat.s_period,
                         n_out=5)
        assert traj.theta[-1] == pytest.approx(2 * np.pi, rel=1e-10)


class TestPoleTermination:
    def test_separatrix_reaches_pole(self, sphere):
        # on the I = 1 level the band touches t = 0, and the descending
        # branch arrives there in finite time (dt/ds tends to -m)
        t0 = 1.0
        g, G = sphere.jet(t0, 0)
        u = (1.0 + G) / (1.0 * g)
        phi0 = np.pi - np.arcsin(u)
        traj = integrate(sphere, 1.0, (t0, phi0, 0.0), 50.0)
        assert traj.pole_terminated
        assert traj.s[-1] < 50.0

    def test_regular_band_never_terminates(self, ellipsoid):
        traj = integrate(ellipsoid, 1.0, band_state(ellipsoid, 1.0, 0.3),
                         200.0)
        assert not traj.pole_terminated

    @pytest.mark.parametrize("t0", [0.0, 0.5e-6, -0.1, np.pi - 0.5e-6, np.pi,
                                    5.0, np.nan])
    def test_start_inside_a_guard_is_refused(self, sphere, t0):
        # t0 = 0 divided by gamma = 0, and t0 = 5 ran on the profile's
        # extension past the pole at ell = pi
        with pytest.raises(ValueError, match=r"start t0 = .* is not inside "
                                             r"\(3\.14159\d*e-06, 3\.14158"):
            integrate(sphere, 1.0, (t0, 0.3, 0.0), 1.0)

    @pytest.mark.parametrize("s_max", [np.inf, -np.inf, np.nan])
    def test_infinite_time_is_refused(self, sphere, s_max, monkeypatch):
        # before the sample grid, whose linspace would warn, and before the
        # stepper, which never ended an infinite span
        def no_run(*args, **kwargs):
            raise AssertionError("dop853 called")
        monkeypatch.setattr("magflow.flow.dop853", no_run)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"s_max = .* is not finite"):
                integrate(sphere, 1.0, (1.2, 0.3, 0.0), s_max)


class TestBandState:
    def test_level_value_exact(self, ellipsoid):
        for I in (-0.8, 0.1, 0.9):
            st = band_state(ellipsoid, 1.2, I)
            g, G = ellipsoid.jet(st[0], 0)
            assert 1.2 * g * np.sin(st[1]) - G == pytest.approx(I, abs=1e-12)

    def test_branches(self, ellipsoid):
        # t increases from the state; its mirror pi - phi is the other
        # crossing of the band midpoint, on the same level, with t falling
        t, phi, _ = band_state(ellipsoid, 1.2, 0.3)
        g, G = ellipsoid.jet(t, 0)
        assert np.cos(phi) > 0 > np.cos(np.pi - phi)
        assert 1.2 * g * np.sin(np.pi - phi) - G == pytest.approx(0.3,
                                                                  abs=1e-12)


class TestSectionMeasurement:
    def test_sphere_closed_forms(self, sphere):
        m, I = 1.0, 0.3
        lev = level_average_ode(sphere, m, I)
        assert lev.period == pytest.approx(2 * np.pi / np.sqrt(2), rel=1e-9)
        assert lev.action == pytest.approx(2.0, rel=1e-9)
        assert lev.theta_advance / (2 * np.pi) == pytest.approx(0.0, abs=1e-9)

    def test_sphere_rotating_level(self, sphere):
        lev = level_average_ode(sphere, 2.0, 1.7)
        assert lev.theta_advance / (2 * np.pi) == pytest.approx(1.0,
                                                               rel=1e-8)

    def test_ellipsoid_cross_method(self, ellipsoid):
        rep = compare_level(ellipsoid, 0.8, 0.45)
        assert rep["period_rel"] < 1e-8
        assert rep["action_rel"] < 1e-8
        assert rep["theta_rel"] < 1e-8

    def test_rejected_level_raises(self, sphere, monkeypatch):
        # the integration span comes from the quadrature or not at all
        def reject(p, m, I):
            raise LevelRangeError(f"I = {I} rejected")
        monkeypatch.setattr("magflow.flow.birkhoff_action", reject)
        with pytest.raises(LevelRangeError):
            level_average_ode(sphere, 1.0, 0.3)


class TestTrajectoryRecord:
    def test_csv_shape(self, sphere):
        traj = integrate(sphere, 1.0, (1.0, 0.2, 0.0), 1.0, n_out=5)
        lines = traj.csv_lines()
        assert lines[0] == "s,t,phi,theta,I_hat"
        assert len(lines) == 6
        assert (traj.t[0], traj.phi[0], traj.theta[0]) == \
            pytest.approx((1.0, 0.2, 0.0))


class TestPrefixReader:
    @pytest.mark.parametrize("spec, m, state0, nfev", [
        ("ellipsoid:1.5", 0.8, (1.0, 0.4, 0.0), 3809),
        # across the spindle's cap/collar seams at s = 0.07 and 39.746
        ("spindle:0.07:0.2", 0.5, (0.02, 0.4, 0.0), 13304),
        ("spindle:0.07:0.2", 0.5, (39.76, 2.9, 0.0), 10529)])
    def test_flow_reads_gamma_and_its_slope_only(self, spec, m, state0, nfev,
                                                 monkeypatch):
        # the right-hand side reads the (gamma, gamma') prefix reader once
        # per call, the pole event reads t alone; the four-field reader is
        # never called, and the steps are those the four-field reads gave
        # (nfev pinned)
        point_jet, calls = ProfileFunction.point_jet, Counter()

        def counted(self, fields=4):
            at = point_jet(self, fields)

            def read(t):
                calls[fields] += 1
                return at(t)
            return read
        monkeypatch.setattr(ProfileFunction, "point_jet", counted)
        traj = integrate(parse_profile_spec(spec), m, state0, 20.0)
        assert calls[4] == 0 and calls[2] >= traj.nfev
        assert traj.nfev == nfev and not traj.pole_terminated
