"""Reduced dynamics tests.

The round sphere solves everything in closed form and pins the quadrature:
turning points are arcsin expressions, the reduced half period is the
level-independent pi / sqrt(1 + m^2), the action is m^2 + 1 on every level
and on both latitudes, and the theta winding is the exact step function
+1 / 0 / -1 of the level. Ellipsoid values are cross-checked against an
independent direct quadrature of the defining integrals.
"""
from __future__ import annotations

import numpy as np
import pytest
from scipy.integrate import quad

from magflow.profiles import make_ellipsoid, make_negative_action, make_sphere
from magflow.reduced import (
    KmNotPositiveError,
    LevelRangeError,
    SCAN_HEADER,
    I_hat,
    I_range,
    action_scan,
    birkhoff_action,
    closure_parity,
    contact_verdict,
    find_latitude,
    latitude_action,
    latitudes,
    minimal_contractible_closure,
    orbit_closure,
    rational_closures,
    regular_levels,
    scan_csv_lines,
    turning_points,
)


@pytest.fixture(scope="module")
def sphere():
    return make_sphere()


@pytest.fixture(scope="module")
def ellipsoid():
    return make_ellipsoid(1.3)


class TestInvariantRange:
    def test_sphere_closed_form(self, sphere):
        for m in (0.5, 1.0, 2.0):
            r = I_range(sphere, m)
            assert r.I_max == pytest.approx(np.sqrt(1 + m * m), rel=1e-9)
            assert r.I_min == pytest.approx(-np.sqrt(1 + m * m), rel=1e-9)

    def test_degenerate_at_zero_field(self, sphere):
        with pytest.raises(LevelRangeError):
            I_range(sphere, 0.0)

    def test_latitude_sits_on_the_range_boundary(self, ellipsoid):
        # the envelope maximum is attained exactly at the upper latitude
        for m in (0.3, 1.0, 2.5):
            lat = find_latitude(ellipsoid, m, side="upper")
            r = I_range(ellipsoid, m)
            assert lat.I_value == pytest.approx(r.I_max, rel=1e-9)

    def test_invariant_formula(self, sphere):
        assert I_hat(sphere, 2.0, 1.0, np.pi / 2) == pytest.approx(
            2.0 * np.sin(1.0) + np.cos(1.0))


class TestTurningPoints:
    def test_sphere_unit_field_center_level(self, sphere):
        tp = turning_points(sphere, 1.0, 0.0)
        assert tp.t_minus == pytest.approx(np.pi / 4, abs=1e-10)
        assert tp.t_plus == pytest.approx(3 * np.pi / 4, abs=1e-10)

    def test_sphere_general_level(self, sphere):
        # m sin t = |I + Gamma| has arcsin solutions for the mixed band
        m, I = 2.0, 0.4
        tp = turning_points(sphere, m, I)
        W = lambda t: (m * np.sin(t)) ** 2 - (I - np.cos(t)) ** 2
        assert abs(W(tp.t_minus)) < 1e-9
        assert abs(W(tp.t_plus)) < 1e-9
        mid = 0.5 * (tp.t_minus + tp.t_plus)
        assert W(mid) > 0
        assert tp.width > 0

    def test_band_interior_positive(self, ellipsoid):
        m, I = 1.0, 0.7
        tp = turning_points(ellipsoid, m, I)
        t = np.linspace(tp.t_minus, tp.t_plus, 41)[1:-1]
        g = ellipsoid.gamma(t)
        G = ellipsoid.Gamma(t)
        assert np.all((m * g) ** 2 - (I + G) ** 2 > 0)

    def test_latitude_levels_rejected(self, sphere):
        with pytest.raises(LevelRangeError):
            turning_points(sphere, 1.0, np.sqrt(2.0))
        with pytest.raises(LevelRangeError):
            turning_points(sphere, 1.0, 1.0)

    def test_km_gate(self):
        p = make_negative_action(0.1, 0.9)[0]
        with pytest.raises(KmNotPositiveError):
            turning_points(p, 1.0, 0.0)


class TestSphereLevelQuadrature:
    def test_isochrony(self, sphere):
        # reduced half period is level independent on the round sphere
        for m in (0.5, 1.0, 2.0):
            ref = np.pi / np.sqrt(1.0 + m * m)
            for I in (-1.2, -0.5, 0.0, 0.8, 1.3):
                if abs(I) >= np.sqrt(1 + m * m) - 0.05:
                    continue
                lev = birkhoff_action(sphere, m, I)
                assert lev.s_half == pytest.approx(ref, rel=1e-7)

    def test_action_constant(self, sphere):
        for m in (0.5, 1.0, 2.0):
            for I in (-0.9, 0.0, 0.6, 1.1):
                if abs(I) >= np.sqrt(1 + m * m) - 0.05:
                    continue
                lev = birkhoff_action(sphere, m, I)
                assert lev.action == pytest.approx(m * m + 1, rel=1e-7)

    def test_winding_step_function(self, sphere):
        m = 2.0
        assert birkhoff_action(sphere, m, 1.5).winding == pytest.approx(
            1.0, abs=1e-7)
        assert birkhoff_action(sphere, m, 0.3).winding == pytest.approx(
            0.0, abs=1e-7)
        assert birkhoff_action(sphere, m, -1.5).winding == pytest.approx(
            -1.0, abs=1e-7)

    def test_reeb_period(self, sphere):
        lev = birkhoff_action(sphere, 1.0, 0.0)
        assert lev.reeb_period == pytest.approx(
            2.0 * np.pi * np.sqrt(2.0), rel=1e-7)


class TestEllipsoidQuadratureOracle:
    def test_independent_quadrature(self, ellipsoid):
        # Gauss-Chebyshev absorbs the 1/sqrt((t-a)(b-t)) endpoint weight
        # exactly; nodes and weights are unrelated to the substitution
        # rule used by the library, making this a genuine cross-check
        p, m, I = ellipsoid, 0.8, 0.45
        tp = turning_points(p, m, I)
        lev = birkhoff_action(p, m, I)
        a, b = tp.t_minus, tp.t_plus

        def chebyshev(F, n=4096):
            k = np.arange(1, n + 1)
            t = 0.5 * (a + b) + 0.5 * (b - a) * np.cos((2 * k - 1) * np.pi
                                                       / (2 * n))
            g = np.asarray(p.gamma(t))
            W = (m * g) ** 2 - (I + np.asarray(p.Gamma(t))) ** 2
            V = W / ((t - a) * (b - t))   # smooth and positive on [a, b]
            return np.pi / n * np.sum(F(t, g) / np.sqrt(V))

        # both rules share the turning-point accuracy floor near 1e-9
        s_half = chebyshev(lambda t, g: g)
        assert lev.s_half == pytest.approx(s_half, rel=5e-9)

        th_half = chebyshev(lambda t, g: (I + np.asarray(p.Gamma(t))) / g)
        assert lev.theta_half == pytest.approx(th_half, abs=5e-9 * lev.s_half)

        # action: time average of h over the band; same weight structure
        def h_num(t, g):
            bt = np.asarray(p.Gamma(t)) + np.asarray(p.dgamma(t))
            return g * (m * m + 1.0 - bt * (I + np.asarray(p.Gamma(t)))
                        / (g * g))
        action = chebyshev(h_num) / s_half
        assert lev.action == pytest.approx(action, rel=5e-9)


class TestLatitudes:
    def test_sphere_location_and_action(self, sphere):
        for m in (0.5, 1.0, 2.0, 5.0):
            lat = find_latitude(sphere, m, side="upper")
            assert lat.t0 == pytest.approx(np.arctan(m), abs=1e-10)
            assert lat.m_t0 == pytest.approx(m, rel=1e-10)
            assert lat.action == pytest.approx(1 + m * m, rel=1e-9)
            assert lat.I_value == pytest.approx(np.sqrt(1 + m * m), rel=1e-9)
            assert lat.s_half_limit == pytest.approx(
                np.pi / np.sqrt(1 + m * m), rel=1e-9)
            assert lat.s_period == pytest.approx(
                2 * np.pi / np.sqrt(1 + m * m), rel=1e-9)
            assert lat.reeb_period == pytest.approx(
                2 * np.pi * np.sqrt(1 + m * m), rel=1e-9)

    def test_pair_symmetry(self, sphere):
        lats = latitudes(sphere, 1.0)
        assert len(lats) == 2
        up, lo = (lats[0], lats[1]) if lats[0].t0 < lats[1].t0 else (
            lats[1], lats[0])
        assert up.t0 + lo.t0 == pytest.approx(np.pi, abs=1e-9)
        assert up.I_value == pytest.approx(-lo.I_value, rel=1e-9)

    def test_equator_degenerate(self, sphere):
        with pytest.raises(ValueError):
            latitude_action(sphere, np.pi / 2)

    def test_action_formula(self, ellipsoid):
        # action = (gamma^2 - gamma' Gamma) / gamma'^2 from the h identity
        t0 = 0.7
        lat = latitude_action(ellipsoid, t0)
        g = ellipsoid.gamma(t0)
        dg = ellipsoid.dgamma(t0)
        G = ellipsoid.Gamma(t0)
        assert lat.action == pytest.approx((g * g - dg * G) / dg**2,
                                           rel=1e-12)
        assert lat.I_value == pytest.approx(dg * lat.action, rel=1e-12)


class TestScan:
    def test_levels_exclude_singular_values(self, sphere):
        levels = regular_levels(sphere, 1.0, 51)
        r = I_range(sphere, 1.0)
        assert np.all(levels > r.I_min) and np.all(levels < r.I_max)
        assert np.min(np.abs(levels - 1.0)) > 1e-6
        assert np.min(np.abs(levels + 1.0)) > 1e-6

    def test_scan_rows_sorted_with_latitude_rows(self, sphere):
        rows = action_scan(sphere, 1.0, n_levels=9)
        assert len(rows) == 11
        Is = [r.I for r in rows]
        assert Is == sorted(Is)
        lat_rows = [r for r in rows if r.t_minus == r.t_plus]
        assert len(lat_rows) == 2
        for r in lat_rows:
            assert r.action == pytest.approx(2.0, rel=1e-9)
            assert r.s_half == pytest.approx(np.pi / np.sqrt(2), rel=1e-9)

    def test_csv_deterministic(self, sphere):
        a = scan_csv_lines(action_scan(sphere, 0.7, n_levels=7))
        b = scan_csv_lines(action_scan(sphere, 0.7, n_levels=7))
        assert a == b
        assert a[0] == SCAN_HEADER

    def test_jobs_consistency(self, sphere):
        serial = scan_csv_lines(action_scan(sphere, 1.0, n_levels=7, jobs=1))
        pooled = scan_csv_lines(action_scan(sphere, 1.0, n_levels=7, jobs=2))
        assert serial == pooled


class TestClosures:
    def test_parity_table(self):
        assert closure_parity(2, 2, 1.5)         # outside band, even turns
        assert not closure_parity(1, 1, 1.5)     # latitude-like
        assert not closure_parity(1, 0, 0.0)     # mixed band single period
        assert closure_parity(2, 0, 0.0)         # mixed band doubled
        assert closure_parity(1, 1, 0.5)         # mixed band, one turn

    def test_sphere_closures(self, sphere):
        lev = birkhoff_action(sphere, 2.0, 1.5)
        info = orbit_closure(lev)
        assert (info.q, info.p) == (1, 1)
        assert not info.contractible
        full = minimal_contractible_closure(lev, info)
        assert (full.q, full.p) == (2, 2)
        assert full.contractible

    def test_rational_closures_on_prolate(self):
        # frozen from an independent winding bisection: w = 1/3 at
        # I ~ +-0.9226 on the ratio-4 ellipsoid at m = 1
        p = make_ellipsoid(4.0)
        found = rational_closures(p, 1.0, n_levels=41, q_max=3)
        hits = [(lev, c) for lev, c in found if (c.q, abs(c.p)) == (3, 1)]
        assert len(hits) >= 2
        for lev, c in hits:
            assert abs(lev.I) == pytest.approx(0.922638, abs=1e-3)
            assert c.contractible   # q + p = 3 + 1 even on the mixed band
            assert lev.winding == pytest.approx(c.p / c.q, abs=1e-8)

    def test_bisection_onto_winding_jump_is_not_a_closure(self):
        # the winding jumps at I = +-1; a bracket straddling the jump
        # bisects onto I ~ +-0.999994, where q * w misses p by 1.4e-5
        p = make_ellipsoid(2.0)
        found = rational_closures(p, 1.0021, n_levels=11, q_max=5)
        assert found
        for lev, c in found:
            assert abs(c.q * lev.winding - c.p) <= 1e-6 * c.q
            assert abs(abs(lev.I) - 1.0) > 1e-5


class TestVerdict:
    def test_sphere_certified(self, sphere):
        v = contact_verdict(sphere, 1.0)
        assert v.verdict == "certified"
        assert v.h_floor == pytest.approx(2.0, abs=1e-7)

    def test_negative_action_witness(self):
        p, t_lat = make_negative_action(0.1, 0.9)
        lat = latitude_action(p, t_lat)
        v = contact_verdict(p, lat.m_t0)
        assert v.verdict == "witnessed_noncontact"
        assert v.witness is not None
        assert v.h_floor <= 0.0
