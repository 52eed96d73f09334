"""Direct flow integration tests.

Round-sphere orbits give exact references: latitudes are stationary in
(t, phi) with linear theta drift, the invariant is conserved to integrator
precision on every orbit, and level measurements taken by Poincare section
reproduce the closed-form period, winding, and action. Reversibility and
the quadrature cross-check are exercised on ellipsoids as well.
"""
from __future__ import annotations

import numpy as np
import pytest

from magflow.flow import (
    Trajectory,
    band_state,
    birkhoff_action_ode,
    compare_level,
    integrate,
    level_average_ode,
    liouville_action,
    vector_field,
)
from magflow.profiles import make_ellipsoid, make_sphere
from magflow.reduced import birkhoff_action, find_latitude


@pytest.fixture(scope="module")
def sphere():
    return make_sphere()


@pytest.fixture(scope="module")
def ellipsoid():
    return make_ellipsoid(1.3)


class TestVectorField:
    def test_components(self, sphere):
        m, t, phi = 2.0, 1.1, 0.4
        v = vector_field(sphere, m, (t, phi, 0.0))
        assert v[0] == pytest.approx(m * np.cos(phi))
        assert v[1] == pytest.approx(
            1.0 - m * np.cos(t) * np.sin(phi) / np.sin(t))
        assert v[2] == pytest.approx(m * np.sin(phi) / np.sin(t))

    def test_pole_guard(self, sphere):
        with pytest.raises(Exception):
            vector_field(sphere, 1.0, (1e-9, 0.0, 0.0))


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

    def test_reversibility(self, ellipsoid):
        state0 = (1.0, 0.7, 0.2)
        fwd = integrate(ellipsoid, 0.8, state0, 30.0, n_out=3)
        end = (fwd.t[-1], fwd.phi[-1], fwd.theta[-1])
        back = integrate(ellipsoid, 0.8, end, -30.0, n_out=3)
        assert back.t[-1] == pytest.approx(state0[0], abs=1e-7)
        assert back.phi[-1] == pytest.approx(state0[1], abs=1e-7)
        assert back.theta[-1] == pytest.approx(state0[2], abs=1e-7)


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
        u = (1.0 + sphere.Gamma(t0)) / (1.0 * sphere.gamma(t0))
        phi0 = np.pi - np.arcsin(u)
        traj = integrate(sphere, 1.0, (t0, phi0, 0.0), 50.0)
        assert traj.pole_terminated
        assert traj.s[-1] < 50.0

    def test_regular_band_never_terminates(self, ellipsoid):
        traj = integrate(ellipsoid, 1.0, band_state(ellipsoid, 1.0, 0.3),
                         200.0)
        assert not traj.pole_terminated


class TestBandState:
    def test_level_value_exact(self, ellipsoid):
        for I in (-0.8, 0.1, 0.9):
            st = band_state(ellipsoid, 1.2, I, ascending=True)
            g = ellipsoid.gamma(st[0])
            G = ellipsoid.Gamma(st[0])
            assert 1.2 * g * np.sin(st[1]) - G == pytest.approx(I, abs=1e-12)

    def test_branches(self, ellipsoid):
        up = band_state(ellipsoid, 1.2, 0.3, ascending=True)
        dn = band_state(ellipsoid, 1.2, 0.3, ascending=False)
        assert np.cos(up[1]) > 0 > np.cos(dn[1])


class TestSectionMeasurement:
    def test_sphere_closed_forms(self, sphere):
        m, I = 1.0, 0.3
        lev = level_average_ode(sphere, m, I)
        assert lev.period == pytest.approx(2 * np.pi / np.sqrt(2), rel=1e-9)
        assert lev.action == pytest.approx(2.0, rel=1e-9)
        assert lev.winding == pytest.approx(0.0, abs=1e-9)

    def test_sphere_rotating_level(self, sphere):
        lev = level_average_ode(sphere, 2.0, 1.7)
        assert lev.winding == pytest.approx(1.0, rel=1e-8)

    def test_ellipsoid_cross_method(self, ellipsoid):
        rep = compare_level(ellipsoid, 0.8, 0.45)
        assert rep["period_rel"] < 1e-8
        assert rep["action_rel"] < 1e-8
        assert rep["theta_rel"] < 1e-8


class TestBirkhoffAverage:
    def test_latitude_start_exact(self, sphere):
        m = 1.0
        lat = find_latitude(sphere, m, side="upper")
        A = birkhoff_action_ode(sphere, m, (lat.t0, np.pi / 2, 0.0), 40.0)
        assert A == pytest.approx(2.0, rel=1e-9)

    def test_band_start(self, ellipsoid):
        # whole-period horizon so the Richardson correction is exact
        m, I = 0.8, 0.45
        lev = birkhoff_action(ellipsoid, m, I)
        A = birkhoff_action_ode(ellipsoid, m, band_state(ellipsoid, m, I),
                                60.0 * lev.period)
        assert A == pytest.approx(lev.action, rel=1e-6)


class TestLiouville:
    def test_universal_value(self, sphere, ellipsoid):
        for p in (sphere, ellipsoid):
            for m in (0.5, 3.0):
                assert liouville_action(p, m) == pytest.approx(
                    m * m + 1.0, rel=1e-12)


class TestTrajectoryRecord:
    def test_csv_shape(self, sphere):
        traj = integrate(sphere, 1.0, (1.0, 0.2, 0.0), 1.0, n_out=5)
        lines = traj.csv_lines()
        assert lines[0] == "s,t,phi,theta,I_hat"
        assert len(lines) == 6
        assert traj.state0 == pytest.approx((1.0, 0.2, 0.0))
