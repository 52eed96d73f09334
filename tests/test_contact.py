"""Contact bound tests.

The round sphere is the exact oracle: its rotation-invariant primitive has
beta_theta = sin' t + (-cos t)' ... = cos t - cos t = 0 identically, so
m_gamma vanishes and the certified interval is everything. Split intervals
are exercised on spindle profiles built to have large m_gamma, and the
quadratic relating m_gamma to the interval endpoints is checked against
closed-form roots.
"""
from __future__ import annotations

import numpy as np
import pytest

from magflow import contact
from magflow.contact import (
    beta_ratio,
    contact_interval,
    h_min,
    km_positive,
    km_positive_threshold,
    m_gamma,
    m_plus_minus,
    magnetic_curvature,
    min_curvature,
    reeb_factor,
)
from magflow.profiles import (
    make_ellipsoid,
    make_sphere,
    make_spindle,
    parse_profile_spec,
)


@pytest.fixture(scope="module")
def sphere():
    return make_sphere()


@pytest.fixture(scope="module")
def ellipsoid():
    return make_ellipsoid(1.3)


def _certified(rep, m):
    return any(lo < m < hi for lo, hi in rep.certified_intervals)


class TestPrimitiveNorm:
    def test_sphere_beta_vanishes(self, sphere):
        t = np.linspace(0.0, np.pi, 257)
        _, dg, G = sphere.jet(t, 1)
        assert np.max(np.abs(G + dg)) < 1e-12
        assert m_gamma(sphere) < 1e-8

    def test_pole_limits_are_zero(self, ellipsoid):
        assert beta_ratio(ellipsoid, 0.0) == 0.0
        assert beta_ratio(ellipsoid, ellipsoid.ell) == 0.0

    def test_sup_dominates_fine_grid(self, ellipsoid):
        # independent dense evaluation can never exceed the refined sup
        t = np.linspace(0.0, ellipsoid.ell, 65537)[1:-1]
        dense = float(np.max(np.abs(beta_ratio(ellipsoid, t))))
        mg = m_gamma(ellipsoid)
        assert mg >= dense - 1e-12
        assert mg == pytest.approx(dense, rel=1e-6)

    def test_scale_with_spindle_target(self):
        # cap radius ~ delta makes the primitive norm ~ 1/delta
        p1 = make_spindle(0.2, 0.2)
        p2 = make_spindle(0.1, 0.2)
        assert m_gamma(p2) > 1.8 * m_gamma(p1)

    def test_one_search_per_profile(self, monkeypatch):
        # contact_interval, m_gamma and h_min at every m read the (m_gamma,
        # t_star) kept on the profile: one grid search in all
        p = make_ellipsoid(1.7)
        min_curvature(p)
        searches, search = [], contact.grid_sup

        def counted(f, a, b, **kwargs):
            searches.append((a, b))
            return search(f, a, b, **kwargs)
        monkeypatch.setattr(contact, "grid_sup", counted)
        rep = contact_interval(p)
        mg = m_gamma(p)
        ms = (0.3, 1.0, 2.5)
        floors = [h_min(p, m) for m in ms]
        assert searches == [(0.0, p.ell)]
        assert rep.m_gamma == mg
        assert floors == [reeb_factor(m, mg, 1.0, 1.0) for m in ms]


class TestIntervalQuadratic:
    def test_roots_product_one(self):
        lo, hi = m_plus_minus(3.0)
        assert lo * hi == pytest.approx(1.0, rel=1e-14)
        assert lo + hi == pytest.approx(3.0, rel=1e-14)
        assert lo == pytest.approx((3 - np.sqrt(5)) / 2)

    def test_no_roots_below_two(self):
        assert m_plus_minus(1.999999) is None
        lo, hi = m_plus_minus(2.0)
        assert lo == hi == pytest.approx(1.0)

    def test_sphere_certifies_everything(self, sphere):
        rep = contact_interval(sphere)
        assert rep.m_minus is None
        assert rep.certified_intervals == ((0.0, np.inf),)
        for m in (1e-6, 1.0, 1e6):
            assert _certified(rep, m)

    def test_split_interval_excludes_unit(self):
        p = make_spindle(0.1, 0.2)
        rep = contact_interval(p)
        assert rep.m_gamma > 2.0
        assert rep.m_minus is not None and rep.m_minus < 1.0 < rep.m_plus
        assert not _certified(rep, 1.0)
        assert _certified(rep, rep.m_minus / 2)
        assert _certified(rep, 2.0 * rep.m_plus)
        assert rep.m_minus * rep.m_plus == pytest.approx(1.0, rel=1e-12)

    def test_report_roundtrip_and_lines(self, ellipsoid):
        rep = contact_interval(ellipsoid)
        d = rep.to_dict()
        assert d["m_gamma"] == rep.m_gamma
        assert any("certified" in ln for ln in rep.lines())


class TestMirrorTies:
    @pytest.mark.parametrize("spec", ["spindle:0.0727272727:0.2",
                                      "ellipsoid:1.5"])
    def test_t_star_on_the_near_half(self, spec):
        # profiles symmetric about their equator attain m_gamma twice, at
        # values that differ by roundoff; t_star is the smaller abscissa
        p = parse_profile_spec(spec)
        rep = contact_interval(p)
        assert rep.t_star < 0.5 * p.ell
        mirror = abs(beta_ratio(p, p.ell - rep.t_star))
        assert mirror == pytest.approx(rep.m_gamma, rel=1e-9)


class TestMagneticCurvature:
    def test_sphere_closed_form(self, sphere):
        t = np.linspace(0.1, np.pi - 0.1, 31)
        for m in (0.5, 1.0, 3.0):
            assert np.allclose(magnetic_curvature(sphere, m, t),
                               m * m + 1.0, atol=1e-10)

    def test_positive_curvature_never_obstructs(self, sphere, ellipsoid):
        for p in (sphere, ellipsoid):
            assert min_curvature(p) > 0.0
            assert km_positive_threshold(p) == np.inf
            assert km_positive(p, 1e9)

    def test_threshold_matches_min_curvature(self):
        # the negative-action construction has a sharply concave neck
        from magflow.profiles import make_negative_action
        p = make_negative_action(0.1, 0.9)[0]
        mk = min_curvature(p)
        assert mk < 0.0
        thr = km_positive_threshold(p)
        assert thr == pytest.approx(1.0 / np.sqrt(-mk), rel=1e-12)
        assert km_positive(p, 0.99 * thr)
        assert not km_positive(p, 1.01 * thr)


class TestPositivityGate:
    def test_h_min_sphere(self, sphere):
        assert h_min(sphere, 1.0) == pytest.approx(2.0, abs=1e-7)

    def test_gap_raises(self):
        # the floor fails inside the uncertified window and holds below it
        p = make_spindle(0.1, 0.2)
        assert h_min(p, 1.0) <= 0.0
        rep = contact_interval(p)
        assert h_min(p, rep.m_minus / 2) > 0.0


class TestSymmetricCriterion:
    def test_oblate_ellipsoid(self):
        # oblate: symmetric, curvature grows from pole to equator, so the
        # criterion gives m_gamma <= 1 (measured 0.41, 0.27, 0.13)
        for r in (0.4, 0.6, 0.8):
            assert m_gamma(make_ellipsoid(r)) <= 1.0
