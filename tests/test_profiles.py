"""Profile construction and validation tests.

The round sphere gamma = sin t is the exact oracle: every numerically built
profile is checked against it directly (ratio-1 ellipsoid, spline resample)
or through invariants it pins down (endpoint jets, area normalization,
finite-difference consistency of the derivative fields).
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from magflow.profiles import (
    EllipsoidProfile,
    SphereProfile,
    SplineProfile,
    StretchBump,
    StretchedProfile,
    from_dict,
    load_profile,
    make_ellipsoid,
    make_negative_action,
    make_sphere,
    make_spindle,
    normalize_stretch,
    parse_profile_spec,
    save_profile,
    stretch,
    validate,
)


def fd_check(p, t, tol):
    """Central-difference consistency of the derivative chain at points t."""
    h = 1e-5
    t = np.asarray(t)
    fd1 = (p.gamma(t + h) - p.gamma(t - h)) / (2 * h)
    fd2 = (p.dgamma(t + h) - p.dgamma(t - h)) / (2 * h)
    fdG = (p.Gamma(t + h) - p.Gamma(t - h)) / (2 * h)
    assert np.max(np.abs(fd1 - p.dgamma(t))) < tol
    assert np.max(np.abs(fd2 - p.ddgamma(t))) < tol
    assert np.max(np.abs(fdG - p.gamma(t))) < tol


def check_point_jet(p, seed, extra=()):
    """point_jet against jet(t, 1) on 2e5 random points, the points extra
    and points 1e-12 outside [0, ell]: within 4 ulp of 1, since every
    column is O(1), and bitwise on the closed-form sphere."""
    t = np.concatenate([
        np.random.default_rng(seed).uniform(0.0, p.ell, 200000),
        extra, [-1e-12, p.ell + 1e-12]])
    want = np.column_stack(p.jet(t, 1))
    at = p.point_jet()
    got = np.array([at(ti) for ti in t.tolist()])
    tol = 0.0 if isinstance(p, SphereProfile) else 4 * np.spacing(1.0)
    assert np.max(np.abs(got - want)) <= tol


def collar_oracle(p, s):
    """(gamma, gamma', gamma'', Gamma) of a stretched profile at s in its
    collar, from first principles: F(t) = s inverted by brentq, the chain
    rule through F, and Gamma from an adaptive quadrature of the weighted
    area."""
    base, bump, c, C = p.base, p.bump, p.center, p.C
    w = bump.half_width
    t = brentq(lambda t: t + 2 * C * (float(bump.cumulative(t - c)) + 0.5)
               - s, c - w, c + w, xtol=1e-16, rtol=4 * np.finfo(float).eps)
    g, dg, ddg, G = (float(v) for v in base.jet(t, 2))
    dF = 1.0 + 2 * C * float(bump.density(t - c))
    ddF = 2 * C * float(bump.ddensity(t - c))
    swept, _ = quad(lambda u: float(base.gamma(u)) * float(bump.density(u - c)),
                    c - w, t, epsabs=1e-16, epsrel=1e-14, limit=200)
    return g, dg / dF, ddg / dF**2 - dg * ddF / dF**3, G + 2 * C * swept


# quad reaches the roundoff floor of the weighted area before epsabs
_QUAD_ROUNDOFF = "ignore::scipy.integrate.IntegrationWarning"


def check_collar(p, seed, n=40):
    """The tabulated collar against collar_oracle at random points and at
    points crowding both seams."""
    lo, hi = p._s_lo, p._s_hi
    edge = np.geomspace(1e-9, 1e-2, 8)
    s = np.concatenate([np.random.default_rng(seed).uniform(lo, hi, n),
                        lo + edge, hi - edge])
    want = np.array([collar_oracle(p, si) for si in s])
    got = np.column_stack(p.jet(s, 2))
    err = np.max(np.abs(got - want), axis=0)
    assert err[0] <= 1e-13 and err[3] <= 1e-13, err
    assert err[1] <= 1e-10, err
    assert err[2] <= 1e-8 * np.max(np.abs(want[:, 2])), err


_SAMPLES = np.linspace(0, np.pi, 201)


@pytest.mark.parametrize("build", [
    lambda: SphereProfile(1.0),
    lambda: make_ellipsoid(2.0),
    lambda: SplineProfile(_SAMPLES, np.sin(_SAMPLES)),
    lambda: make_spindle(0.07, 0.2),
], ids=["sphere", "ellipsoid", "samples", "spindle"])
def test_scalar_and_array_agree(build):
    p = build()
    # pole-band points exercise the pole limits of the curvature
    t = np.concatenate([[0.0, 1e-4], np.linspace(0.1, p.ell - 0.1, 7),
                        [p.ell - 1e-4, p.ell]])
    views = (p.gamma, p.dgamma, p.ddgamma, p.dddgamma, p.Gamma, p.curvature)
    for f in views:
        arr = np.asarray(f(t))
        scal = np.array([float(f(float(ti))) for ti in t])
        assert np.allclose(arr, scal, atol=1e-14)
    # the jet carries every view, and lower orders are its prefixes
    jet = p.jet(t, 3)
    assert len(jet) == 5
    for got, f in zip(jet, views[:5]):
        assert np.array_equal(got, f(t))
    for order in range(3):
        low = p.jet(t, order)
        assert len(low) == order + 2
        for a, b in zip(low, jet[:order + 1] + jet[-1:]):
            assert np.array_equal(a, b)
    for k in (0, 4, len(t) - 1):
        for a, b in zip(p.jet(float(t[k]), 3), jet):
            assert np.ndim(a) == 0
            assert float(a) == pytest.approx(b[k], rel=1e-14, abs=1e-14)
    # the flow's point evaluator returns floats; on the spindle the points
    # cover both round caps and the collar
    at = p.point_jet()
    for k in range(len(t)):
        got = at(float(t[k]))
        assert all(type(v) is float for v in got)
        assert got == pytest.approx((jet[0][k], jet[1][k], jet[4][k]),
                                    rel=1e-14, abs=1e-14)
    if isinstance(p, EllipsoidProfile):
        # the third derivative is pinned to its exact pole limit
        assert jet[3][0] == jet[3][1] == -p.pole_curvature
        assert jet[3][-1] == jet[3][-2] == p.pole_curvature


class TestSphere:
    def test_closed_form(self):
        p = SphereProfile(1.0)
        t = np.linspace(0, np.pi, 101)
        assert np.allclose(p.gamma(t), np.sin(t), atol=1e-15)
        assert np.allclose(p.Gamma(t), -np.cos(t), atol=1e-15)
        assert np.allclose(p.curvature(t), 1.0, atol=1e-12)
        assert abs(p.area() - 4 * np.pi) < 1e-12
        assert p.ell == pytest.approx(np.pi)

    def test_endpoint_jets(self):
        p = SphereProfile(1.0)
        assert p.dgamma(0.0) == pytest.approx(1.0, abs=1e-15)
        assert p.dgamma(p.ell) == pytest.approx(-1.0, abs=1e-15)
        assert abs(p.ddgamma(0.0)) < 1e-15
        assert p.Gamma(0.0) == pytest.approx(-1.0)
        assert p.Gamma(p.ell) == pytest.approx(1.0)

    def test_validate(self):
        rep = validate(make_sphere())
        assert rep.passed, "\n".join(rep.lines())

    def test_unnormalized_sphere_fails_only_area(self):
        rep = validate(SphereProfile(0.8))
        failed = [c.name for c in rep.conditions if not c.passed]
        assert failed == ["normalization area=4pi"]



class TestEllipsoid:
    def test_ratio_one_matches_sphere(self):
        e = EllipsoidProfile(1.0)
        s = SphereProfile(1.0)
        t = np.linspace(0, np.pi, 257)
        assert abs(e.ell - np.pi) < 1e-10
        assert np.max(np.abs(e.gamma(t) - s.gamma(t))) < 1e-10
        assert np.max(np.abs(e.dgamma(t) - s.dgamma(t))) < 1e-9
        assert np.max(np.abs(e.Gamma(t) - s.Gamma(t))) < 1e-10
        assert np.max(np.abs(e.curvature(t) - 1.0)) < 1e-7

    @pytest.mark.parametrize("ratio", [0.5, 2.0, 4.0])
    def test_against_quadrature_oracle(self, ratio):
        # independent arclength and area integrals in the polar angle u
        sp = lambda u: np.sqrt(np.cos(u) ** 2 + ratio**2 * np.sin(u) ** 2)
        ell_raw, _ = quad(sp, 0, np.pi, limit=200)
        area_raw, _ = quad(lambda u: np.sin(u) * sp(u), 0, np.pi, limit=200)
        scale = np.sqrt(2.0 / area_raw)
        p = EllipsoidProfile(ratio)
        assert p.ell == pytest.approx(scale * ell_raw, rel=1e-10)
        assert p.gamma_integral() == pytest.approx(2.0, abs=1e-10)
        # equator: gamma max equals the scale factor, slope zero
        mid = 0.5 * p.ell
        assert p.gamma(mid) == pytest.approx(scale, rel=1e-10)
        assert abs(p.dgamma(mid)) < 1e-10
        assert p.curvature(mid) == pytest.approx(1.0 / (ratio**2 * scale**2),
                                                 rel=1e-8)
        assert p.curvature(0.0) == pytest.approx(ratio**2 / scale**2, rel=1e-8)

    @pytest.mark.parametrize("ratio", [0.5, 2.0])
    def test_validate_and_fd(self, ratio):
        p = make_ellipsoid(ratio)
        rep = validate(p)
        assert rep.passed, "\n".join(rep.lines())
        fd_check(p, np.linspace(0.2, p.ell - 0.2, 41), 1e-7)

    @pytest.mark.parametrize("ratio", [0.5, 1.0, 1.3, 2.0, 4.0])
    def test_point_jet_matches_jet(self, ratio):
        # Taylor tables against the spline's own evaluation at every knot
        # too; ratio 1 is the closed-form sphere
        p = make_ellipsoid(ratio)
        sp = None if isinstance(p, SphereProfile) else p._table.sp
        check_point_jet(p, int(10 * ratio),
                        [] if sp is None else np.unique(sp.t[sp.k:-sp.k]))

    def test_make_ellipsoid_unit_ratio_is_sphere(self):
        assert isinstance(make_ellipsoid(1.0), SphereProfile)


class TestSplineProfile:
    def test_resampled_sphere(self):
        t = np.linspace(0, np.pi, 201)
        p = SplineProfile(t, np.sin(t))
        tt = np.linspace(0, np.pi, 997)
        assert np.max(np.abs(p.gamma(tt) - np.sin(tt))) < 1e-10
        assert np.max(np.abs(p.dgamma(tt) - np.cos(tt))) < 1e-8
        assert np.max(np.abs(p.Gamma(tt) + np.cos(tt))) < 1e-10
        assert validate(p).passed

    def test_bad_samples_rejected(self):
        with pytest.raises(ValueError):
            SplineProfile([0, 1, 2], [0, 1, 0])  # too few points
        t = np.linspace(0.5, 2.0, 20)
        with pytest.raises(ValueError):
            SplineProfile(t, np.sin(t))  # does not start at 0

    def test_invalid_profile_detected(self):
        # cone-like tip: slope 2 at the left end violates the closure model
        t = np.linspace(0, np.pi, 101)
        p = SplineProfile(t, np.sin(t),
                          end_conditions=([(1, 2.0), (2, 0.0)],
                                          [(1, -1.0), (2, 0.0)]))
        rep = validate(p)
        assert not rep.passed
        assert any("slope" in c.name for c in rep.conditions if not c.passed)


class TestStretch:
    def setup_method(self):
        self.base = SphereProfile(0.7)  # area deficit to absorb
        self.bump = StretchBump(0.5)
        self.center = 0.5 * self.base.ell

    def test_zero_stretch_is_identity(self):
        assert stretch(self.base, 0.0, self.bump) is self.base

    def test_rigid_zones(self):
        C = 0.3
        p = StretchedProfile(self.base, C, self.bump, self.center)
        left = np.linspace(0, self.center - 0.5, 50)
        right = np.linspace(self.center + 0.5 + 2 * C, p.ell, 50)
        assert np.max(np.abs(p.gamma(left) - self.base.gamma(left))) < 1e-14
        assert np.max(np.abs(p.gamma(right) - self.base.gamma(right - 2 * C))) < 1e-14
        assert np.max(np.abs(p.Gamma(left) - self.base.Gamma(left))) < 1e-14

    def test_area_affine_in_C(self):
        vals = [StretchedProfile(self.base, C, self.bump,
                                 self.center).gamma_integral()
                for C in (0.1, 0.2, 0.4)]
        assert vals[2] - vals[1] == pytest.approx(2 * (vals[1] - vals[0]),
                                                  abs=1e-12)

    def test_inverse_roundtrip_and_smoothness(self):
        C = 0.25
        p = StretchedProfile(self.base, C, self.bump, self.center)
        # derivative fields stay consistent across the collar seams
        seam = np.array([p._s_lo - 1e-3, p._s_lo + 1e-3,
                         p._s_hi - 1e-3, p._s_hi + 1e-3])
        fd_check(p, np.concatenate([seam, np.linspace(0.3, p.ell - 0.3, 31)]),
                 2e-6)

    def test_bump_keeps_precision_at_its_edges(self):
        # R + 1/2 is the mass of rho left of x, tiny near the left edge
        w = self.bump.half_width
        for x in -w + w * np.geomspace(1e-3, 1.0, 7):
            mass, _ = quad(self.bump.density, -w, x, epsabs=0.0,
                           epsrel=1e-13)
            assert float(self.bump.cumulative(x)) + 0.5 == pytest.approx(
                mass, rel=1e-12)
            assert float(self.bump.cumulative(-x)) == -float(
                self.bump.cumulative(x))

    @pytest.mark.parametrize("build", [
        lambda: make_spindle(0.07, 0.2),
        lambda: make_spindle(0.8 / 11, 0.2),
        lambda: make_negative_action(0.1, 0.9)[0],
    ], ids=["spindle", "bigm", "negative-action"])
    @pytest.mark.filterwarnings(_QUAD_ROUNDOFF)
    def test_collar_against_inversion_oracle(self, build):
        check_collar(build(), 13)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.03, 0.3), st.floats(0.05, 0.5))
    @pytest.mark.filterwarnings(_QUAD_ROUNDOFF)
    def test_spindle_collars_against_inversion_oracle(self, delta, eps):
        check_collar(make_spindle(delta, eps), 17, n=16)

    @pytest.mark.parametrize("build", [
        lambda: make_spindle(0.07, 0.2),
        lambda: make_negative_action(0.1, 0.9)[0],
    ], ids=["spindle", "negative-action"])
    def test_point_jet_matches_jet(self, build):
        # the base's point_jet in the rigid zones, the collar's Taylor table
        # between them: every collar knot, both seams and 1e-12 around them
        p = build()
        sp = p._collar.sp
        seams = np.array([p._s_lo, p._s_hi])
        check_point_jet(p, 3, np.concatenate([
            np.unique(sp.t[sp.k:-sp.k]), seams - 1e-12, seams + 1e-12]))

    def test_normalize_stretch(self):
        p = normalize_stretch(self.base, self.bump)
        assert p.C > 0
        assert p.gamma_integral() == pytest.approx(2.0, abs=1e-10)
        assert validate(p).passed
        with pytest.raises(ValueError):
            normalize_stretch(SphereProfile(1.0), self.bump)  # no deficit


class TestConstructions:
    def test_spindle_geometry(self):
        delta, eps = 0.05, 0.1
        p = make_spindle(delta, eps)
        a = p.cap_radius
        assert validate(p).passed
        assert np.cos(delta / a) < eps
        # polar caps stay exactly round to depth delta
        t = np.linspace(0, delta, 20)
        assert np.max(np.abs(p.gamma(t) - a * np.sin(t / a))) < 1e-13
        tr = p.ell - t
        assert np.max(np.abs(p.gamma(tr) - a * np.sin(t / a))) < 1e-12
        assert p.collar_C > 1.0  # tiny caps need a long collar

    def test_spindle_rejects_bad_params(self):
        with pytest.raises(ValueError):
            make_spindle(-0.1, 0.5)
        with pytest.raises(ValueError):
            make_spindle(0.3, 1.5)

    def test_negative_action_geometry(self):
        delta, eps = 0.1, 0.9
        p, t_lat = make_negative_action(delta, eps)
        a = p.cap_radius
        assert t_lat == delta
        assert validate(p).passed
        assert float(p.dgamma(delta)) < -eps
        t = np.linspace(0, delta, 20)
        assert np.max(np.abs(p.gamma(t) - a * np.sin(t / a))) < 1e-13

    def test_seeded_parameter_sweep(self):
        rng = np.random.default_rng(20260815)
        for _ in range(5):
            delta = rng.uniform(0.03, 0.3)
            eps = rng.uniform(0.05, 0.5)
            p = make_spindle(delta, eps)
            assert validate(p).passed, (delta, eps)
        for _ in range(5):
            ratio = rng.uniform(0.3, 4.0)
            assert validate(make_ellipsoid(ratio)).passed, ratio


class TestSerialization:
    @pytest.mark.parametrize("build", [
        lambda: SphereProfile(1.0),
        lambda: EllipsoidProfile(0.5),
        lambda: SplineProfile(np.linspace(0, np.pi, 64),
                              np.sin(np.linspace(0, np.pi, 64))),
        lambda: make_spindle(0.2, 0.3),
    ])
    def test_round_trip(self, build, tmp_path):
        p = build()
        q = from_dict(p.to_dict())
        t = np.linspace(0, p.ell, 101)
        assert q.ell == pytest.approx(p.ell, abs=1e-12)
        assert np.max(np.abs(q.gamma(t) - p.gamma(t))) < 1e-12
        path = tmp_path / "prof.json"
        save_profile(p, path)
        r = load_profile(path)
        assert np.max(np.abs(r.gamma(t) - p.gamma(t))) < 1e-12

    def test_round_trip_keeps_end_conditions(self, tmp_path):
        t = np.linspace(0, np.pi, 101)
        p = SplineProfile(t, np.sin(t),
                          end_conditions=([(1, 2.0), (2, 0.0)],
                                          [(1, -1.0), (2, 0.0)]))
        path = tmp_path / "prof.json"
        save_profile(p, path)
        for q in (from_dict(p.to_dict()), load_profile(path)):
            assert not validate(q).passed
            for a, b in zip(q.jet(t, 3), p.jet(t, 3)):
                assert np.array_equal(a, b)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            from_dict({"kind": "torus"})

    def test_parse_spec(self):
        assert isinstance(parse_profile_spec("sphere"), SphereProfile)
        assert isinstance(parse_profile_spec("ellipsoid:2.0"), EllipsoidProfile)
        p = parse_profile_spec("spindle:0.05:0.1")
        assert validate(p).passed
        p = parse_profile_spec("negative-action:0.1:0.9")
        assert validate(p).passed
