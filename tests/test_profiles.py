"""Profile construction and validation tests.

The round sphere gamma = sin t is the exact oracle: every numerically built
profile is checked against it directly (ratio-1 ellipsoid, spline resample)
or through invariants it pins down (endpoint jets, area normalization,
finite-difference consistency of the derivative fields).
"""
from __future__ import annotations

import functools
import gc
import linecache
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from magflow import profiles
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
    lo, mid, hi = (p.jet(s, 2) for s in (t - h, t, t + h))
    fd1 = (hi[0] - lo[0]) / (2 * h)
    fd2 = (hi[1] - lo[1]) / (2 * h)
    fdG = (hi[-1] - lo[-1]) / (2 * h)
    assert np.max(np.abs(fd1 - mid[1])) < tol
    assert np.max(np.abs(fd2 - mid[2])) < tol
    assert np.max(np.abs(fdG - mid[0])) < tol


def check_point_jet(p, seed, extra=()):
    """point_jet against jet(t, 2) on 2e5 random points, the points extra
    and points 1e-12 outside [0, ell]: within 4 ulp of each column's scale,
    1 for gamma, gamma' and Gamma, which are O(1), and max |gamma''| for
    gamma''; bitwise on the closed-form sphere. The (gamma, gamma') prefix
    reader equals the first two fields bitwise."""
    t = np.concatenate([
        np.random.default_rng(seed).uniform(0.0, p.ell, 200000),
        extra, [-1e-12, p.ell + 1e-12]])
    want = np.column_stack(p.jet(t, 2))
    at, prefix = p.point_jet(), p.point_jet(2)
    got = np.array([at(ti) for ti in t.tolist()])
    scale = np.array([1.0, 1.0, np.max(np.abs(want[:, 2])), 1.0])
    tol = 0.0 if isinstance(p, SphereProfile) else 4 * np.spacing(1.0)
    assert np.max(np.abs(got - want) / scale) <= tol
    two = np.array([prefix(ti) for ti in t.tolist()])
    assert two.shape == (len(t), 2)
    assert np.array_equal(two.view(np.int64), got[:, :2].view(np.int64))


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
    fields = [lambda s, k=k: p.jet(s, 3)[k] for k in range(5)]
    for f in (*fields, p.gamma, p.curvature):
        arr = np.asarray(f(t))
        scal = np.array([float(f(float(ti))) for ti in t])
        assert np.allclose(arr, scal, atol=1e-14)
    # the jet carries the gamma view, and lower orders are its prefixes
    jet = p.jet(t, 3)
    assert len(jet) == 5
    assert np.array_equal(jet[0], p.gamma(t))
    for order in range(3):
        low = p.jet(t, order)
        assert len(low) == order + 2
        for a, b in zip(low, jet[:order + 1] + jet[-1:]):
            assert np.array_equal(a, b)
    for k in (0, 4, len(t) - 1):
        for a, b in zip(p.jet(float(t[k]), 3), jet):
            assert np.ndim(a) == 0
            assert float(a) == pytest.approx(b[k], rel=1e-14, abs=1e-14)
    # the point evaluator returns floats, and is built once per profile;
    # on the spindle the points cover both round caps and the collar
    at = p.point_jet()
    assert p.point_jet() is at
    ddg_scale = float(np.max(np.abs(jet[2])))
    for k in range(len(t)):
        g, dg, ddg, G = got = at(float(t[k]))
        assert all(type(v) is float for v in got)
        assert (g, dg, G) == pytest.approx((jet[0][k], jet[1][k], jet[4][k]),
                                           rel=1e-14, abs=1e-14)
        assert ddg == pytest.approx(jet[2][k], rel=1e-14,
                                    abs=1e-14 * ddg_scale)
    # the (gamma, gamma') reader: built once, the same fields bitwise
    prefix = p.point_jet(2)
    assert p.point_jet(2) is prefix and prefix is not at
    for k in range(len(t)):
        two = prefix(float(t[k]))
        assert type(two) is tuple and two == at(float(t[k]))[:2]
    if isinstance(p, EllipsoidProfile):
        # the third derivative is pinned to its exact pole limit
        assert jet[3][0] == jet[3][1] == -p.pole_curvature
        assert jet[3][-1] == jet[3][-2] == p.pole_curvature


class TestSphere:
    def test_closed_form(self):
        p = SphereProfile(1.0)
        t = np.linspace(0, np.pi, 101)
        assert np.allclose(p.gamma(t), np.sin(t), atol=1e-15)
        assert np.allclose(p.jet(t, 0)[-1], -np.cos(t), atol=1e-15)
        assert np.allclose(p.curvature(t), 1.0, atol=1e-12)
        assert abs(2.0 * np.pi * p.gamma_integral() - 4 * np.pi) < 1e-12
        assert p.ell == pytest.approx(np.pi)

    def test_endpoint_jets(self):
        p = SphereProfile(1.0)
        _, d0, dd0, G0 = p.jet(0.0, 2)
        _, d1, _, G1 = p.jet(p.ell, 2)
        assert d0 == pytest.approx(1.0, abs=1e-15)
        assert d1 == pytest.approx(-1.0, abs=1e-15)
        assert abs(dd0) < 1e-15
        assert G0 == pytest.approx(-1.0)
        assert G1 == pytest.approx(1.0)

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
        (_, de, Ge), (_, ds, Gs) = e.jet(t, 1), s.jet(t, 1)
        assert np.max(np.abs(de - ds)) < 1e-9
        assert np.max(np.abs(Ge - Gs)) < 1e-10
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
        assert abs(p.jet(mid, 1)[1]) < 1e-10
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
        check_point_jet(p, int(10 * ratio),
                        [] if isinstance(p, SphereProfile) else p._table.knots)

    @pytest.mark.parametrize("spec", ["ellipsoid:1.4", "spindle:0.07:0.2",
                                      "samples"])
    def test_point_jets_go_with_the_profile(self, spec):
        # the generated readers hold no reference cycle: dropping the
        # profile frees it and its table and blocks without the cycle
        # collector, and profiles of one kind share their readers'
        # compiled source
        def build():
            p = (SplineProfile(_SAMPLES, np.sin(_SAMPLES)) if spec == "samples"
                 else profiles.parse_profile_spec(spec))
            for fields in (2, 4):
                p.point_jet(fields)(0.5 * p.ell)
            return p
        build()
        cached = len(linecache.cache)
        gc.disable()
        try:
            p = build()
            data = getattr(p, "_collar", None) or p._table
            refs = [weakref.ref(p), weakref.ref(data)]
            del p, data
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()
        assert len(linecache.cache) == cached

    def test_make_ellipsoid_unit_ratio_is_sphere(self):
        assert isinstance(make_ellipsoid(1.0), SphereProfile)


_SLICE_SPECS = ["sphere", "ellipsoid:0.6", "ellipsoid:1.5", "ellipsoid:4",
                "samples", "spindle:0.07:0.2", "negative-action:0.1:0.9"]


@functools.cache
def _slice_profile(spec):
    if spec == "samples":
        return SplineProfile(_SAMPLES, np.sin(_SAMPLES))
    return parse_profile_spec(spec)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def check_reader_slices(p, t):
    """Every reader is a slice of the full one, bitwise: jet(t, k) for k =
    0, 1, 2 the matching entries of jet(t, 3), and the point readers of
    two and three fields the matching fields of the four-field one."""
    full = p.jet(t, 3)       # (gamma, gamma', gamma'', gamma''', Gamma)
    for order, cols in ((0, (0, 4)), (1, (0, 1, 4)), (2, (0, 1, 2, 4))):
        low = p.jet(t, order)
        assert len(low) == len(cols)
        for got, k in zip(low, cols):
            assert np.array_equal(_bits(got), _bits(full[k])), (order, k)
    four = np.array([p.point_jet()(s) for s in t.tolist()])
    for fields, cols in ((2, [0, 1]), (3, [0, 1, 3])):
        at = p.point_jet(fields)
        got = np.array([at(s) for s in t.tolist()])
        assert np.array_equal(_bits(got), _bits(four[:, cols])), fields


class TestReaderSlices:
    """A reader of fewer columns sums the same coefficients in the same
    order and skips the rest, so it equals the full reader bitwise."""

    @pytest.mark.parametrize("spec", _SLICE_SPECS)
    def test_slices_on_random_points_seams_and_ends(self, spec):
        p = _slice_profile(spec)
        t = [np.random.default_rng(27).uniform(0.0, p.ell, 4000),
             [0.0, p.ell, -1e-12, p.ell + 1e-12]]
        if isinstance(p, StretchedProfile):     # both collar seams
            t += [[e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf),
                   e - 1e-12, e + 1e-12] for e in (p._s_lo, p._s_hi)]
        check_reader_slices(p, np.concatenate(t))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(_SLICE_SPECS),
           st.lists(st.floats(-1e-9, 1.0 + 1e-9), min_size=1, max_size=64))
    def test_slices_at_random_points(self, spec, fractions):
        p = _slice_profile(spec)
        check_reader_slices(p, p.ell * np.array(fractions))


class TestColumnSpline:
    """The numpy quintic fit behind the tabulated kinds, and the Taylor
    table that both jets read, against scipy's make_interp_spline on the
    same samples: the one oracle outside the table itself."""

    @staticmethod
    def fitted(build, monkeypatch):
        """The profile build() makes, and the samples of its spline."""
        seen, fit = [], profiles._ColumnSpline.__init__

        def spy(self, x, columns, clamped):
            seen.append((x, columns))
            fit(self, x, columns, clamped)
        monkeypatch.setattr(profiles._ColumnSpline, "__init__", spy)
        return build(), seen[-1]

    @pytest.mark.parametrize("build", [
        lambda: make_ellipsoid(0.5),
        lambda: make_ellipsoid(1.3),
        lambda: make_ellipsoid(4.0),
        lambda: make_spindle(0.07, 0.2),
        lambda: make_negative_action(0.1, 0.9)[0],
    ], ids=["ellipsoid-0.5", "ellipsoid-1.3", "ellipsoid-4", "spindle",
            "negative-action"])
    def test_jet_matches_scipy(self, build, monkeypatch):
        # every knot, every cell midpoint, random points and points 1e-12
        # outside both ends, within 16 eps of each column's largest value;
        # gamma''' differentiates the gamma'' column, so its bound is that
        # column's over the shortest knot interval
        from scipy.interpolate import make_interp_spline
        p, (x, columns) = self.fitted(build, monkeypatch)
        spline = p._table if isinstance(p, EllipsoidProfile) else p._collar
        sp = make_interp_spline(x, columns, k=5)
        knots = spline.knots
        t = np.concatenate([
            knots, 0.5 * (knots[:-1] + knots[1:]),
            np.random.default_rng(5).uniform(x[0], x[-1], 2000),
            [x[0] - 1e-12, x[-1] + 1e-12]])
        g, dg, ddg, dddg, G = spline.jet(t, 3)
        bound = 16 * np.spacing(1.0) * np.max(np.abs(columns), axis=0)
        assert np.all(np.abs(np.column_stack([g, dg, ddg, G]) - sp(t))
                      <= bound)
        assert np.all(np.abs(dddg - sp(t, nu=1)[:, 2])
                      <= bound[2] / np.min(np.diff(knots)))

    @pytest.mark.parametrize("residue", range(4))
    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 74), st.integers(0, 2**32 - 1))
    def test_fit_matches_scipy_on_random_grids(self, residue, fours, seed):
        # 8 to 299 points with every alignment of the last block of four
        # collocation rows, spacings within a factor 2 of each other and
        # values in [-1, 1]: knots equal, coefficients within 16 eps of
        # each column's largest
        from scipy.interpolate import make_interp_spline
        rng = np.random.default_rng(seed)
        n = 4 * fours + residue
        x = np.concatenate([[0.0], np.cumsum(rng.uniform(1.0, 2.0, n - 1))])
        y = rng.uniform(-1.0, 1.0, (n, 4))
        t, c, *_ = profiles._quintic_fit(x, y)
        sp = make_interp_spline(x, y, k=5)
        assert np.array_equal(t, sp.t)
        assert np.all(np.abs(c - sp.c)
                      <= 16 * np.spacing(1.0) * np.max(np.abs(sp.c), axis=0))

    @pytest.mark.parametrize("n, ends", [
        (201, None), (64, None),
        (101, ([(1, 2.0), (2, 0.0)], [(1, -1.0), (2, 0.0)]))],
        ids=["sphere-201", "sphere-64", "slope-2"])
    def test_samples_jets_match_scipy(self, n, ends):
        # the samples kind's clamped fit and its exact derivatives and
        # antiderivative against make_interp_spline's, at every knot, every
        # midpoint, random points and points 1e-12 outside both ends. gamma
        # and Gamma are within 16 eps of their columns' largest values.
        # Derivative r of a spline differences its coefficients r times,
        # each time over at least the shortest interval h, so fits whose
        # coefficients agree to 16 eps of the largest agree in derivative r
        # to that times (2 / h)^r; gamma''' takes the per-interval bound of
        # test_jet_matches_scipy, gamma'''s over h
        from scipy.interpolate import make_interp_spline
        x = np.linspace(0.0, np.pi, n)
        p = SplineProfile(x, np.sin(x), ends)
        sp = make_interp_spline(x, np.sin(x), k=5, bc_type=ends or (
            [(1, 1.0), (2, 0.0)], [(1, -1.0), (2, 0.0)]))
        prim = sp.antiderivative()
        knots = p._table.knots
        t = np.concatenate([
            knots, 0.5 * (knots[:-1] + knots[1:]),
            np.random.default_rng(7).uniform(x[0], x[-1], 2000),
            [x[0] - 1e-12, x[-1] + 1e-12]])
        want = [sp(t, nu) for nu in range(4)] + [
            -1.0 + (prim(t) - prim(0.0))]
        eps, h = np.spacing(1.0), np.min(np.diff(knots))
        coef = 16 * eps * np.max(np.abs(sp.c))
        bounds = [16 * eps * np.max(np.abs(want[0])), coef * 2 / h,
                  coef * (2 / h) ** 2, coef * (2 / h) ** 2 / h,
                  16 * eps * np.max(np.abs(want[4]))]
        for field, (got, w, bound) in enumerate(zip(p.jet(t, 3), want,
                                                    bounds)):
            assert np.max(np.abs(got - w)) <= bound, field
        assert p.gamma_integral() == pytest.approx(
            prim(x[-1]) - prim(0.0), abs=16 * eps)

    @pytest.mark.parametrize("residue", range(4))
    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 74), st.integers(0, 2**32 - 1))
    def test_clamped_fit_matches_scipy_on_random_grids(self, residue, fours,
                                                       seed):
        # 8 to 299 points with every alignment of the last block of four
        # collocation rows, spacings within a factor 2 of each other,
        # values in [-1, 1] and end derivatives in [-2, 2]: knots equal,
        # coefficients within 16 eps of the largest
        from scipy.interpolate import make_interp_spline
        rng = np.random.default_rng(seed)
        n = 4 * fours + residue
        x = np.concatenate([[0.0], np.cumsum(rng.uniform(1.0, 2.0, n - 1))])
        y = rng.uniform(-1.0, 1.0, n)
        (d1, d2), (e1, e2) = ends = rng.uniform(-2.0, 2.0, (2, 2))
        t, c, *_ = profiles._quintic_fit(x, y[:, None], ends)
        sp = make_interp_spline(x, y, k=5, bc_type=([(1, d1), (2, d2)],
                                                    [(1, e1), (2, e2)]))
        assert np.array_equal(t, sp.t)
        assert np.all(np.abs(c[:, 0] - sp.c)
                      <= 16 * np.spacing(1.0) * np.max(np.abs(sp.c)))

    def test_samples_must_increase(self):
        x = np.linspace(0.0, 1.0, 20)
        x[7] = x[6]
        with pytest.raises(ValueError):
            profiles._quintic_fit(x, np.ones((20, 4)))


class TestSplineProfile:
    def test_resampled_sphere(self):
        t = np.linspace(0, np.pi, 201)
        p = SplineProfile(t, np.sin(t))
        tt = np.linspace(0, np.pi, 997)
        assert np.max(np.abs(p.gamma(tt) - np.sin(tt))) < 1e-10
        _, dg, G = p.jet(tt, 1)
        assert np.max(np.abs(dg - np.cos(tt))) < 1e-8
        assert np.max(np.abs(G + np.cos(tt))) < 1e-10
        assert validate(p).passed

    def test_bad_samples_rejected(self):
        with pytest.raises(ValueError):
            SplineProfile([0, 1, 2], [0, 1, 0])  # too few points
        t = np.linspace(0.5, 2.0, 20)
        with pytest.raises(ValueError):
            SplineProfile(t, np.sin(t))  # does not start at 0

    @pytest.mark.parametrize("ends", [
        ([(1, 1.0)], [(1, -1.0), (2, 0.0)]),
        ([(1, 1.0), (1, 0.0)], [(1, -1.0), (2, 0.0)]),
        ([(1, 1.0), (3, 0.0)], [(1, -1.0), (2, 0.0)]),
        ([(1, 1.0), (2, 0.0), (2, 0.0)], [(1, -1.0), (2, 0.0)]),
        ([(1, 1.0), (2, 0.0)],),
        ([(1, 1.0), (2, 0.0)], [(1, -1.0), (2, 0.0)], [(1, 0.0), (2, 0.0)]),
        [(1, 1.0), (2, 0.0)],
        ([(1, 1.0, 0.0), (2, 0.0)], [(1, -1.0), (2, 0.0)]),
        ([(1, "one"), (2, 0.0)], [(1, -1.0), (2, 0.0)]),
        ([(1, 1.0), (2, 0.0)], None),
        "natural",
    ])
    def test_malformed_end_conditions_rejected(self, ends):
        # JSON input: one (1, gamma') and one (2, gamma'') pair per end
        t = np.linspace(0, np.pi, 41)
        with pytest.raises(ValueError, match="end_conditions"):
            SplineProfile(t, np.sin(t), ends)

    def test_end_conditions_in_either_order(self):
        t = np.linspace(0, np.pi, 41)
        flipped = SplineProfile(t, np.sin(t), ([(2, 0.0), (1, 1.0)],
                                               [(2, 0.0), (1, -1.0)]))
        tt = np.linspace(0, np.pi, 99)
        for a, b in zip(flipped.jet(tt, 3),
                        SplineProfile(t, np.sin(t)).jet(tt, 3)):
            assert np.array_equal(a, b)

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
        assert np.max(np.abs(p.jet(left, 0)[-1]
                             - self.base.jet(left, 0)[-1])) < 1e-14

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
        seams = np.array([p._s_lo, p._s_hi])
        check_point_jet(p, 3, np.concatenate([
            p._collar.knots, seams - 1e-12, seams + 1e-12]))

    def test_collar_area_once_per_build(self, monkeypatch):
        # normalize_stretch's quadrature serves the constructor it calls:
        # one 6-point rule per build, and none for a base that has it
        rules, nodes = [], profiles.gauss_nodes
        monkeypatch.setattr(profiles, "gauss_nodes",
                            lambda n: rules.append(n) or nodes(n))
        make_spindle(0.07, 0.2)
        assert rules == [6]
        normalize_stretch(self.base, self.bump, self.center)
        stretch(self.base, 0.1, self.bump, self.center)
        assert rules == [6, 6]
        t, P = profiles._collar_area(self.base, self.bump, self.center)
        assert not (t.flags.writeable or P.flags.writeable)

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
        assert p.C > 1.0  # tiny caps need a long collar

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
        assert float(p.jet(delta, 1)[1]) < -eps
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
