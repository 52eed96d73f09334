"""Reduced dynamics tests.

The round sphere solves everything in closed form and pins the quadrature:
turning points are arcsin expressions, the reduced half period is the
level-independent pi / sqrt(1 + m^2), the action is m^2 + 1 on every level
and on both latitudes, and the theta winding is the exact step function
+1 / 0 / -1 of the level. Ellipsoid values are cross-checked against an
independent direct quadrature of the defining integrals.
"""
from __future__ import annotations

import functools
import gc
import tracemalloc
import weakref
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from magflow import reduced
from magflow.contact import contact_interval, h_min, km_positive, \
    km_positive_threshold, min_curvature, reeb_factor
from magflow.cz import latitude_cz
from magflow.flow import integrate, level_average_ode
from magflow.profiles import (SplineProfile, make_ellipsoid,
                              make_negative_action, make_sphere,
                              parse_profile_spec)
from magflow.reduced import (
    CLOSURE_TOL,
    ENVELOPE_GRID,
    KmNotPositiveError,
    LATITUDE_BAND,
    LEVEL_BAND,
    ClosureInfo,
    LevelRangeError,
    POLE_GAP,
    QUAD_NODES,
    QUAD_RTOL,
    SCAN_HEADER,
    I_hat,
    I_range,
    action_scan,
    birkhoff_action,
    closure_parity,
    find_latitude,
    latitude_action,
    latitudes,
    minimal_contractible_closure,
    rational_closures,
    regular_levels,
    scan_csv_lines,
    turning_points,
)

CLOSURE_Q_MAX = 64            # orbit_closure's largest number of periods


def orbit_closure(level):
    """Smallest q <= CLOSURE_Q_MAX making q * winding integral to
    CLOSURE_TOL per period: the closure of a single level, the reference
    for the closures rational_closures solves for."""
    w = level.winding
    for q in range(1, CLOSURE_Q_MAX + 1):
        pq = round(q * w)
        if abs(q * w - pq) < CLOSURE_TOL * q:
            return ClosureInfo(q=q, p=int(pq),
                               contractible=closure_parity(q, int(pq),
                                                           level.I))
    return None


@functools.cache
def _profile(spec):
    """The builtin profile of spec, built once per session for the
    hypothesis properties, whose examples share no fixture."""
    return parse_profile_spec(spec)


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
        # the envelope extrema are the latitudes, found by one search
        spindle = parse_profile_spec("spindle:0.07:0.2")
        for p, m in [(ellipsoid, 0.3), (ellipsoid, 1.0), (ellipsoid, 2.5),
                     (spindle, 0.25)]:
            r = I_range(p, m)
            for upper, lower in ((find_latitude(p, m, side="upper"),
                                  find_latitude(p, m, side="lower")),
                                 latitudes(p, m)):
                assert r.argmax_t == upper.t0 and r.argmin_t == lower.t0
                assert upper.I_value == pytest.approx(r.I_max, rel=1e-9)
                assert lower.I_value == pytest.approx(r.I_min, rel=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([0.25, 0.8, 2.0]),
                              st.floats(0.2, 3.0)), min_size=1, max_size=6))
    def test_cached_range_matches_fresh_profile(self, sphere, ellipsoid, ms):
        # the reduced systems kept on each profile never change a value:
        # the two profiles alternate, and a new m replaces a kept system
        for m in ms:
            for p, fresh in ((ellipsoid, make_ellipsoid(1.3)),
                             (sphere, make_sphere())):
                assert _system_values(p, m) == _system_values(fresh, m)

    def test_system_keeps_no_profile_alive(self):
        # the reduced system is kept on its profile as one derived entry
        # and refers to it weakly: with the collector off, a dropped
        # profile dies at once
        p = make_ellipsoid(1.3)
        p.point_jet(), p.point_jet(3)
        min_curvature(p)
        keys = set(vars(p))
        gc.disable()
        try:
            rational_closures(p, 0.8, n_levels=9, q_max=3)
            action_scan(p, 0.8, 5)
            turning_points(p, 1.1, 0.5)
            find_latitude(p, 1.1, "lower")
            assert set(vars(p)) == keys | {"reduced system"}
            ref = weakref.ref(p)
            del p
            assert ref() is None
        finally:
            gc.enable()

    def test_alternating_profiles_build_each_system_once(self, monkeypatch):
        # each profile keeps its own system, so switching between two
        # profiles at one m rebuilds nothing
        built = []

        class Counted(reduced._System):
            def __init__(self, p, m):
                built.append((p.to_dict()["ratio"], m))
                super().__init__(p, m)
        monkeypatch.setattr(reduced, "_System", Counted)
        a, b = make_ellipsoid(1.5), make_ellipsoid(0.6)
        ranges = [I_range(p, 0.8) for _ in range(5) for p in (a, b)]
        assert built == [(1.5, 0.8), (0.6, 0.8)]
        assert ranges == [I_range(make_ellipsoid(1.5), 0.8),
                          I_range(make_ellipsoid(0.6), 0.8)] * 5

    def test_sweep_over_m_keeps_one_system(self, ellipsoid):
        # a new m replaces the system kept on the profile
        gc.disable()
        try:
            kept = [weakref.ref(reduced._system(ellipsoid, m))
                    for m in (0.3, 0.8, 1.1, 2.0)]
            assert [r() is not None for r in kept] == [False] * 3 + [True]
        finally:
            gc.enable()

    def test_invariant_formula(self, sphere):
        assert I_hat(sphere, 2.0, 1.0, np.pi / 2) == pytest.approx(
            2.0 * np.sin(1.0) + np.cos(1.0))


_SAMPLES = np.linspace(0.0, np.pi, 201)
# (build, m, the table that the point jet reads); the closure
# search solves secant brackets on the ellipsoid and the spindle
_KINDS = {
    "sphere": (make_sphere, 0.8, lambda p: p),
    "ellipsoid": (lambda: make_ellipsoid(2.0), 1.0021,
                  lambda p: p._table._table),
    "spindle": (lambda: parse_profile_spec("spindle:0.07:0.2"), 0.25,
                lambda p: p._collar._table),
    "samples": (lambda: SplineProfile(_SAMPLES, np.sin(_SAMPLES)), 0.8,
                lambda p: p._table._table),
}


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_dropped_profile_dies_at_once(kind):
    # every cache of state derived from a profile lives on it and refers
    # to it at most weakly, and no call leaves a reference cycle behind:
    # with the collector off, dropping the profile after every consumer
    # of it frees it, its reduced system and its table at once
    build, m, table = _KINDS[kind]
    gc.disable()
    try:
        p = build()
        for fields in (2, 4):
            p.point_jet(fields)(0.5 * p.ell)
        min_curvature(p)
        contact_interval(p)
        assert {"min curvature", "m gamma"} <= set(vars(p))
        action_scan(p, m, 5)
        rational_closures(p, m, n_levels=11, q_max=5)
        find_latitude(p, m, "lower")
        assert not integrate(p, m, (0.5 * p.ell, 0.4, 0.0), 5.0,
                             n_out=11).pole_terminated
        # on the separatrix I = 1 through the pole, as in the flow tests
        t0 = 0.05
        g, G = p.jet(t0, 0)
        phi0 = np.pi - np.arcsin((1.0 + G) / (m * g))
        assert integrate(p, m, (t0, phi0, 0.0), 50.0,
                         n_out=11).pole_terminated
        level_average_ode(p, m, float(regular_levels(p, m, 5)[1]))
        latitude_cz(p, m)
        refs = [weakref.ref(x) for x in (p, reduced._system(p, m), table(p))]
        del p
        assert [r() is None for r in refs] == [True] * 3
    finally:
        gc.enable()


def _system_values(p, m):
    """Range, levels, turning points, latitudes and scan rows at (p, m),
    as float hex."""
    levels = regular_levels(p, m, 4)
    values = [*astuple(I_range(p, m)), *levels,
              *turning_points(p, m, float(levels[1])),
              *(x for lat in latitudes(p, m) for x in astuple(lat)),
              *(x for row in action_scan(p, m, 4) for x in astuple(row))]
    return [float(x).hex() for x in values]


class TestTurningPoints:
    def test_sphere_unit_field_center_level(self, sphere):
        t_minus, t_plus = turning_points(sphere, 1.0, 0.0)
        assert t_minus == pytest.approx(np.pi / 4, abs=1e-10)
        assert t_plus == pytest.approx(3 * np.pi / 4, abs=1e-10)

    def test_sphere_general_level(self, sphere):
        # m sin t = |I + Gamma| has arcsin solutions for the mixed band
        m, I = 2.0, 0.4
        t_minus, t_plus = turning_points(sphere, m, I)
        W = lambda t: (m * np.sin(t)) ** 2 - (I - np.cos(t)) ** 2
        assert abs(W(t_minus)) < 1e-9
        assert abs(W(t_plus)) < 1e-9
        assert W(0.5 * (t_minus + t_plus)) > 0
        assert t_plus > t_minus

    def test_band_interior_positive(self, ellipsoid):
        m, I = 1.0, 0.7
        t = np.linspace(*turning_points(ellipsoid, m, I), 41)[1:-1]
        g, G = ellipsoid.jet(t, 0)
        assert np.all((m * g) ** 2 - (I + G) ** 2 > 0)

    def test_latitude_levels_rejected(self, sphere, ellipsoid):
        bad = [(sphere, np.sqrt(2.0)), (sphere, 1.0), (sphere, np.nan)]
        for p in (sphere, ellipsoid):
            r = I_range(p, 1.0)
            bad += [(p, r.I_min), (p, r.I_max)]
        for p, I in bad:
            with pytest.raises(LevelRangeError):
                turning_points(p, 1.0, I)

    def test_range_follows_m(self):
        # I = 1.5 lies inside the range at m = 2 (|I| < sqrt 5) only
        p = make_sphere()
        with pytest.raises(LevelRangeError):
            turning_points(p, 0.5, 1.5)
        t_minus, t_plus = turning_points(p, 2.0, 1.5)
        assert 0.0 < t_minus < t_plus < np.pi
        with pytest.raises(LevelRangeError):
            turning_points(p, 0.5, 1.5)

    def test_km_gate(self):
        # at m = 0.016787 the latitude at t = 0.1 has action -1.096 and K_m
        # < 0 elsewhere; every consumer of the envelope table refuses it
        p = make_negative_action(0.1, 0.9)[0]
        for call in (lambda: turning_points(p, 1.0, 0.0),
                     lambda: latitudes(p, 0.016787),
                     lambda: find_latitude(p, 0.016787, "upper"),
                     lambda: I_range(p, 0.016787),
                     lambda: regular_levels(p, 0.016787, 5),
                     lambda: action_scan(p, 0.016787, 0)):
            with pytest.raises(KmNotPositiveError):
                call()

    @pytest.mark.parametrize("spec,m", [("ellipsoid:1.5", 0.8),
                                        ("spindle:0.07:0.2", 0.25)])
    def test_against_brentq(self, spec, m):
        # each turning point is the one root of its envelope piece:
        # [0, argmax_t] or [argmax_t, ell] on the upper envelope, the same
        # around argmin_t on the lower one; t_minus is on the upper
        # envelope iff I > 1, t_plus on the lower one iff I < -1
        p = parse_profile_spec(spec)
        r = I_range(p, m)
        for I in regular_levels(p, m, 100):
            t_minus, t_plus = turning_points(p, m, float(I))
            for t, upper, first in ((t_minus, I > 1.0, True),
                                    (t_plus, I >= -1.0, False)):
                sg, ext = (1, r.argmax_t) if upper else (-1, r.argmin_t)

                def f(s):
                    g, G = p.jet(s, 0)
                    return sg * m * float(g) - float(G) - I

                a, b = (0.0, ext) if first else (ext, p.ell)
                assert abs(t - brentq(f, a, b, xtol=1e-15)) <= 1e-13

    @settings(max_examples=60, deadline=None)
    @given(spec=st.sampled_from(["sphere", "ellipsoid:0.6", "ellipsoid:4",
                                 "spindle:0.07:0.2"]),
           m_frac=st.floats(0.02, 0.999), frac=st.floats(1e-4, 0.9999))
    def test_each_end_on_the_envelope_its_level_names(self, spec, m_frac,
                                                      frac):
        # t_minus < t_plus; t_minus solves the upper envelope m gamma -
        # Gamma = I iff I > 1, t_plus the lower one -m gamma - Gamma = I
        # iff I < -1, and each end solves the other envelope otherwise
        p = _profile(spec)
        thr = km_positive_threshold(p)
        m = m_frac * (thr if np.isfinite(thr) else 5.0)
        r = I_range(p, m)
        I = r.I_min + frac * (r.I_max - r.I_min)
        assume(abs(abs(I) - 1.0) > 10 * LATITUDE_BAND)
        t_minus, t_plus = turning_points(p, m, I)
        assert t_minus < t_plus
        for t, upper in ((t_minus, I > 1.0), (t_plus, not I < -1.0)):
            g, G = (float(x) for x in p.jet(t, 0))
            on_upper = abs(m * g - G - I) <= 1e-12 * (1.0 + abs(I))
            on_lower = abs(-m * g - G - I) <= 1e-12 * (1.0 + abs(I))
            assert (on_upper, on_lower) == (upper, not upper), (t, I)


    @settings(max_examples=30, deadline=None)
    @given(spec=st.sampled_from(["sphere", "ellipsoid:0.6", "ellipsoid:1.5",
                                 "ellipsoid:4", "spindle:0.07:0.2"]),
           frac=st.floats(1e-4, 0.999),
           where=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
           entries=st.lists(st.integers(0, 2 * ENVELOPE_GRID), max_size=10))
    def test_binary_search_matches_flip_count(self, spec, frac, where,
                                              entries):
        # on each strictly monotone piece the binary search brackets every
        # level between the two entries where v > I flips, the one flip
        # over the whole table; levels inside the piece's values and at
        # its entries, short of its largest value, where v > I never holds
        p = parse_profile_spec(spec)
        thr = km_positive_threshold(p)
        m = frac * (thr if np.isfinite(thr) else 5.0)
        system = reduced._system(p, m)
        for piece in system.pieces.values():
            t, v = piece.t, piece.I
            lo, hi = np.min(v), np.max(v)
            levels = np.r_[lo + np.array(where) * (hi - lo),
                           v[np.array(entries, dtype=int) % len(v)]]
            levels = levels[levels < hi]
            want = []
            for I in levels:
                pos = v > I
                flips = np.flatnonzero(pos[1:] != pos[:-1])
                assert len(flips) == 1
                want.append((t[flips[0]], t[flips[0] + 1]))
            got = []
            with mock.patch.object(reduced, "newton_root",
                                   lambda fdf, a, b, fa, fb, ftol:
                                   got.append((a, b)) or a):
                system.crossings(levels, piece)
            assert got == want

    def test_wobbly_table_raises_at_build(self, monkeypatch):
        # one entry of the envelope table pushed up by 1e-3, more than a
        # table step, makes the rising upper piece fall there
        p = make_ellipsoid(1.5)
        jet = p.jet

        def wobbly(t, order):
            out = jet(t, order)
            if np.size(t) == ENVELOPE_GRID:
                G = out[-1].copy()
                G[ENVELOPE_GRID // 8] -= 1e-3
                out = (*out[:-1], G)
            return out
        monkeypatch.setattr(p, "jet", wobbly)
        with pytest.raises(LevelRangeError, match="upper envelope piece 0 "
                                                  "is not strictly monotone"):
            I_range(p, 0.8)

    @pytest.mark.parametrize("j,shift", [(600, 0.0), (637, 1e-10),
                                         (1007, 1e-9), (1599, -1e-10)])
    def test_extremum_on_a_table_entry(self, j, shift):
        # on the sphere the upper extremum sits at atan(m): m puts it on a
        # table entry or within roundoff of one, whose envelope value is
        # then that of the extremum; the pieces leave such entries out
        t = np.linspace(0.0, np.pi, ENVELOPE_GRID + 2)
        m = float(np.tan(t[j] + shift))
        rows = action_scan(make_sphere(), m, 8)
        assert len(rows) == 10
        for r in rows:
            assert r.action == pytest.approx(m * m + 1.0, rel=1e-9)


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

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.2, 3.0), st.floats(0.0, 1.0))
    def test_isochrony_property(self, sphere, m, u):
        # anywhere in the padded range, off the pole values +-1
        r = I_range(sphere, m)
        pad = LEVEL_BAND * (r.I_max - r.I_min)
        I = r.I_min + pad + u * (r.I_max - r.I_min - 2 * pad)
        assume(min(abs(I - 1.0), abs(I + 1.0)) > 10 * LATITUDE_BAND)
        lev = birkhoff_action(sphere, m, I)
        assert lev.s_half == pytest.approx(np.pi / np.sqrt(1 + m * m),
                                           rel=1e-10)
        assert lev.action == pytest.approx(m * m + 1, rel=1e-10)

    def test_reeb_period(self, sphere):
        lev = birkhoff_action(sphere, 1.0, 0.0)
        assert lev.reeb_period == pytest.approx(
            2.0 * np.pi * np.sqrt(2.0), rel=1e-7)


class TestOpenQuadratureDefects:
    """Defects of the band quadrature that ROADMAP items 2 and 5 name,
    recorded at the numbers they show; their fixes flip these tests."""

    @pytest.mark.xfail(strict=True, reason="item 2: W = (m gamma)^2 - (I + "
                       "Gamma)^2 cancels near a latitude; s_half is 8.5e-7 "
                       "off at 1e-8 of the range from I_max")
    def test_sphere_half_period_next_to_the_upper_latitude(self, sphere):
        m = 0.8
        r = I_range(sphere, m)
        lev = birkhoff_action(sphere, m, r.I_max - 1e-8 * (r.I_max - r.I_min))
        assert lev.s_half == pytest.approx(np.pi / np.sqrt(1.0 + m * m),
                                           rel=1e-10)

    @pytest.mark.xfail(strict=True, reason="item 5: the pole of (I + Gamma) "
                       "/ gamma just outside the band; the winding reads "
                       "0.5060782971 at I = 1 - 1e-5")
    def test_prolate_winding_next_to_the_pole_level(self):
        # the oracle is item 5's 30-digit value
        lev = birkhoff_action(make_ellipsoid(4.0), 1.0, 1.0 - 1e-5)
        assert lev.winding == pytest.approx(0.4965942994433, abs=1e-10)


class TestEllipsoidQuadratureOracle:
    def test_independent_quadrature(self, ellipsoid):
        # Gauss-Chebyshev absorbs the 1/sqrt((t-a)(b-t)) endpoint weight
        # exactly; nodes and weights are unrelated to the substitution
        # rule used by the library, making this a genuine cross-check
        p, m, I = ellipsoid, 0.8, 0.45
        a, b = turning_points(p, m, I)
        lev = birkhoff_action(p, m, I)

        def Gamma(t):
            return p.jet(t, 0)[-1]

        def chebyshev(F, n=4096):
            k = np.arange(1, n + 1)
            t = 0.5 * (a + b) + 0.5 * (b - a) * np.cos((2 * k - 1) * np.pi
                                                       / (2 * n))
            g = np.asarray(p.gamma(t))
            W = (m * g) ** 2 - (I + Gamma(t)) ** 2
            V = W / ((t - a) * (b - t))   # smooth and positive on [a, b]
            return np.pi / n * np.sum(F(t, g) / np.sqrt(V))

        # both rules share the turning-point accuracy floor near 1e-9
        s_half = chebyshev(lambda t, g: g)
        assert lev.s_half == pytest.approx(s_half, rel=5e-9)

        th_half = chebyshev(lambda t, g: (I + Gamma(t)) / g)
        assert lev.theta_half == pytest.approx(th_half, abs=5e-9 * lev.s_half)

        # action: time average of h over the band; same weight structure
        def h_num(t, g):
            bt = Gamma(t) + p.jet(t, 1)[1]
            return g * (m * m + 1.0 - bt * (I + Gamma(t)) / (g * g))
        action = chebyshev(h_num) / s_half
        assert lev.action == pytest.approx(action, rel=5e-9)


class TestLatitudes:
    def test_sphere_location_and_action(self, sphere):
        for m in (0.5, 1.0, 2.0, 5.0):
            lat = find_latitude(sphere, m, side="upper")
            assert abs(lat.t0 - np.arctan(m)) <= 1e-14
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

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.5, 4.0), st.floats(0.2, 3.0))
    def test_ellipsoid_latitudes_solve_m_gamma_prime(self, ratio, m):
        # m gamma'(t0) = +-gamma(t0) to rounding, so m_t0 reproduces m
        p = make_ellipsoid(ratio)
        upper, lower = latitudes(p, m)
        for lat, sign in ((upper, 1), (lower, -1)):
            g, dg, _ = map(float, p.jet(lat.t0, 1))
            assert lat.sign == sign
            assert abs(m * dg - sign * g) <= 8 * np.finfo(float).eps
            assert lat.m_t0 == pytest.approx(m, rel=1e-13)

    def test_repeated_calls_do_no_grid_pass(self):
        p = make_ellipsoid(1.3)
        find_latitude(p, 0.8, "upper")
        jet, sizes = p.jet, []
        p.jet = lambda t, order=1: (sizes.append(np.size(t)), jet(t, order))[1]
        for side in ("upper", "lower", "upper"):
            find_latitude(p, 0.8, side)
        latitudes(p, 0.8)
        assert sizes and set(sizes) == {1}

    def test_small_m_latitudes_in_the_pole_cells(self, sphere):
        # at m = 1e-4 both latitudes lie within one grid cell of a pole,
        # where only the pole slopes +-m bracket them
        m = 1e-4
        r = I_range(sphere, m)
        upper, lower = latitudes(sphere, m)
        assert abs(r.argmax_t - np.arctan(m)) <= 1e-18
        assert abs(r.argmin_t - (np.pi - np.arctan(m))) <= 1e-15
        assert (upper.t0, lower.t0) == (r.argmax_t, r.argmin_t)
        assert upper.action == pytest.approx(1 + m * m, rel=1e-12)
        for spec in ("spindle:0.07:0.2", "negative-action:0.1:0.9"):
            p = parse_profile_spec(spec)
            upper, lower = latitudes(p, m)
            assert upper.t0 < p.ell / ENVELOPE_GRID
            assert lower.t0 > p.ell * (1 - 1 / ENVELOPE_GRID)
            for lat in (upper, lower):
                assert lat.m_t0 == pytest.approx(m, rel=1e-12)
                assert lat.action > 0

    def test_side_must_be_upper_or_lower(self, sphere):
        with pytest.raises(ValueError, match="side"):
            find_latitude(sphere, 1.0, "uper")

    def test_equator_degenerate(self, sphere):
        with pytest.raises(ValueError):
            latitude_action(sphere, np.pi / 2)

    def test_action_formula(self, ellipsoid):
        # action = (gamma^2 - gamma' Gamma) / gamma'^2 from the h identity
        t0 = 0.7
        lat = latitude_action(ellipsoid, t0)
        g, dg, G = ellipsoid.jet(t0, 1)
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

    @pytest.mark.parametrize("band", [0.0, 0.5, 0.7, -1e-3, np.nan])
    def test_band_outside_half_the_range_refused(self, sphere, band):
        # a band of half the range or more ran the grid backwards over the
        # interior and was reported as a scan of the range; the scan
        # refuses it with or without regular levels
        for scan in (lambda: regular_levels(sphere, 0.5, 3, band=band),
                     lambda: action_scan(sphere, 0.5, 3, band=band),
                     lambda: action_scan(sphere, 0.5, 0, band=band)):
            with pytest.raises(ValueError, match=r"is not a share in "
                                                 r"\(0, 0\.5\)"):
                scan()

    def test_csv_deterministic(self, sphere):
        a = scan_csv_lines(action_scan(sphere, 0.7, n_levels=7))
        b = scan_csv_lines(action_scan(sphere, 0.7, n_levels=7))
        assert a == b
        assert a[0] == SCAN_HEADER


def _one_at_a_time(p, m, levels):
    return [astuple(birkhoff_action(p, m, float(I))) for I in levels]


def _regular_rows(rows):
    return [astuple(r) for r in rows if r.t_minus != r.t_plus]


def _one_level_on_1d_nodes(p, m, I):
    """The row of level I by the quadrature rule written out for one level
    on 1-D node arrays: nodes doubling from QUAD_NODES until s_half and
    the integral of h ds agree to QUAD_RTOL, at most 8 QUAD_NODES."""
    (a, b), prev = turning_points(p, m, I), None
    for n in (QUAD_NODES << j for j in range(4)):
        k = np.arange(1, n + 1)
        t = 0.5 * (a + b) + 0.5 * (b - a) * np.cos((2 * k - 1) * np.pi
                                                   / (2 * n))
        g, dg, G = p.jet(t, 1)
        V = ((m * g) ** 2 - (I + G) ** 2) / ((t - a) * (b - t))
        w = (np.pi / n) / np.sqrt(V)
        h = reeb_factor(m, G + dg, (I + G) / (m * g), g)
        cur = (float(np.sum(w * g)), float(np.sum(w * (I + G) / g)),
               float(np.sum(w * g * h)))
        if prev is not None and all(
                abs(cur[j] - prev[j]) <= QUAD_RTOL * max(abs(cur[j]), 1e-30)
                for j in (0, 2)):
            break
        prev = cur
    return (I, a, b, cur[0], cur[1], cur[2] / cur[0])


_SPINDLE = parse_profile_spec("spindle:0.07:0.2")


class TestBatchedQuadrature:
    """action_scan evaluates its levels together; every row is the level's
    own quadrature, field for field."""

    @settings(max_examples=25, deadline=None)
    @given(st.one_of(st.just(make_sphere()), st.just(_SPINDLE),
                     st.floats(0.5, 4.0).map(make_ellipsoid)),
           st.floats(0.05, 3.0), st.integers(1, 40),
           st.sampled_from([LEVEL_BAND, 1e-4]))
    def test_scan_rows_are_the_levels_rows(self, p, m, n, band):
        assume(km_positive(p, m))
        rows = action_scan(p, m, n_levels=n, band=band)
        want = _one_at_a_time(p, m, regular_levels(p, m, n, band=band))
        assert _regular_rows(rows) == sorted(want, key=lambda r: r[0])

    def test_masked_doubling(self, monkeypatch):
        # four levels of the spindle's scan at m = 0.25 go on to 512 nodes
        # while the others stop at 128; with 1000 level x node points per
        # chunk, every stage also crosses chunk boundaries. The rows equal
        # those of the rule written out for one level on 1-D nodes
        stages = []
        band_integrals = reduced._System.band_integrals

        def spy(self, I, a, b, n_nodes):
            stages.append((n_nodes, len(I)))
            return band_integrals(self, I, a, b, n_nodes)

        monkeypatch.setattr(reduced._System, "band_integrals", spy)
        levels = regular_levels(_SPINDLE, 0.25, 100)
        want = [_one_level_on_1d_nodes(_SPINDLE, 0.25, float(I))
                for I in levels]
        assert _one_at_a_time(_SPINDLE, 0.25, levels) == want
        for points in (reduced._BATCH_POINTS, 1000):
            monkeypatch.setattr(reduced, "_BATCH_POINTS", points)
            stages.clear()
            rows = action_scan(_SPINDLE, 0.25, n_levels=100)
            assert _regular_rows(rows) == want
            deep = sum(k for n, k in stages if n == 8 * QUAD_NODES)
            assert deep == 4
            assert all(n * k <= points for n, k in stages)

    def test_chunk_boundary(self, ellipsoid):
        # 300 levels of 64 nodes fill more than one chunk
        assert 300 * QUAD_NODES > reduced._BATCH_POINTS
        rows = action_scan(ellipsoid, 0.9, n_levels=300)
        assert _regular_rows(rows) == _one_at_a_time(
            ellipsoid, 0.9, regular_levels(ellipsoid, 0.9, 300))

    def test_no_levels(self, sphere):
        # an empty batch makes no quadrature, and a closure search over no
        # levels finds nothing, as before
        assert reduced._system(sphere, 1.0).levels([]) == []
        assert rational_closures(sphere, 1.0, n_levels=0) == []

    @pytest.mark.parametrize("where", [0, 5, 11])
    def test_one_invalid_level_refuses_the_batch(self, ellipsoid, where):
        r = I_range(ellipsoid, 1.0)
        levels = list(regular_levels(ellipsoid, 1.0, 11))
        for bad in (np.nan, r.I_min, r.I_max, 1.0 + 0.5 * LATITUDE_BAND,
                    -1.0 - 0.5 * LATITUDE_BAND):
            with pytest.raises(LevelRangeError):
                reduced._system(ellipsoid, 1.0).levels(
                    levels[:where] + [bad] + levels[where:])

    @pytest.mark.parametrize("spec, m", [("sphere", 0.7),
                                         ("ellipsoid:0.73", 1.1),
                                         ("spindle:0.07:0.2", 0.25)])
    def test_no_level_at_a_time_in_the_scan(self, spec, m, monkeypatch):
        # one vector jet for the envelope table, then one per doubling
        # stage per chunk of _BATCH_POINTS level x node points; a scan of
        # one level at a time would make at least 200. The per-profile
        # min_curvature cache is warmed
        p = parse_profile_spec(spec)
        min_curvature(p)
        jet, shapes = p.jet, []

        def counted(t, order=1):
            if np.ndim(t):
                shapes.append(np.shape(t))
            return jet(t, order)

        monkeypatch.setattr(p, "jet", counted)
        action_scan(p, m, n_levels=100)
        chunks = sum(-(-100 // (reduced._BATCH_POINTS // n))
                     for n in (QUAD_NODES << j for j in range(4)))
        assert shapes[0] == (ENVELOPE_GRID,)
        assert len(shapes) <= 1 + chunks
        assert all(len(s) == 2 and s[0] * s[1] <= reduced._BATCH_POINTS
                   for s in shapes[1:])

    def test_scan_memory_is_bounded(self):
        # a gathered ellipsoid jet block holds 24 doubles per level x node
        # point: the 5000-level scan peaks near 3 MB in chunks (2.3 MB of
        # it the rows), and would hold about 210 MB in one batch
        p = make_ellipsoid(1.5)
        I_range(p, 0.5)
        tracemalloc.start()
        try:
            rows = action_scan(p, 0.5, n_levels=5000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 5002
        assert peak < 8 * 2**20


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
        full = minimal_contractible_closure(info)
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
            assert orbit_closure(lev) == c

    def test_no_quadrature_at_the_winding_jump(self, monkeypatch):
        # the winding jumps by 1 at I = +-1, and within about 1e-4 of it
        # the quadrature's winding is wrong; no bracket comes nearer than
        # POLE_GAP, so the orbits pair costs its 11 levels, the 4 gap ends
        # and the secant iterates, and no quadrature fails; every level
        # passes through the batched entry, the secant's one at a time
        calls, raised = [], []
        batch = reduced._System.levels

        def guarded(self, levels):
            calls.extend(levels)
            try:
                return batch(self, levels)
            except ValueError as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(reduced._System, "levels", guarded)
        found = rational_closures(make_ellipsoid(2.0), 1.0021, n_levels=11,
                                  q_max=5)
        assert len(calls) <= 40 and not raised
        assert found
        for lev, c in found:
            assert abs(c.q * lev.winding - c.p) <= 1e-6 * c.q
            assert abs(abs(lev.I) - 1.0) > 1e-5

    @pytest.mark.parametrize("ratio, m, n_levels, q_max",
                             [(2.0, 1.0021, 11, 5), (0.5, 1.0, 11, 21)])
    def test_secant_roots_match_brentq(self, ratio, m, n_levels, q_max):
        # every root that newton_root's secant solves, the levels off the
        # grid, lies within 1e-11 in I of brentq's at xtol 1e-15 on the
        # same quadrature: the orbits pair, and the oblate pair whose four
        # 19/21 roots sit where the winding is steep
        p = make_ellipsoid(ratio)
        grid = set(regular_levels(p, m, n_levels).tolist())
        solved = [(lev, c) for lev, c in rational_closures(
            p, m, n_levels=n_levels, q_max=q_max) if lev.I not in grid]
        assert len(solved) >= 4
        assert ratio != 0.5 or len([c for _, c in solved
                                    if (c.q, abs(c.p)) == (21, 19)]) == 4
        for lev, c in solved:
            def gap(I):
                return c.q * birkhoff_action(p, m, I).winding - c.p
            want = brentq(gap, lev.I - 1e-7, lev.I + 1e-7, xtol=1e-15)
            assert abs(lev.I - want) <= 1e-11

    def test_no_closure_in_the_pole_layer(self):
        # within 1e-4 of I = 1 the quadrature's winding on ellipsoid:4 at
        # m = 1 runs up through 1/2, which the true winding (about 0.49662
        # there) never reaches; 3/2 just past the pole is a real closure
        found = rational_closures(make_ellipsoid(4.0), 1.0, n_levels=41,
                                  q_max=6)
        assert all(abs(abs(lev.I) - 1.0) >= POLE_GAP for lev, _ in found)
        assert not [c for _, c in found if (c.q, abs(c.p)) == (2, 1)]
        for sign in (1, -1):
            hit = [lev for lev, c in found if (c.q, c.p) == (2, 3 * sign)]
            assert len(hit) == 1
            assert hit[0].I == pytest.approx(sign * 1.0014361, abs=1e-7)

    # (p, q, I) with I > 0 of criterion 9's four (ratio, m) pairs at 41
    # levels and q <= 6; each set also holds 0/1 at I = 0 and the mirror
    # (-p, q, -I) of every entry
    FROZEN = {
        (2.0, 1.0): [(1, 6, 0.986100559), (6, 5, 1.066859895),
                     (5, 4, 1.178312843)],
        (4.0, 0.5): [(1, 6, 0.968037039), (1, 5, 0.981118464),
                     (1, 4, 0.997896389), (4, 3, 1.022191681),
                     (7, 5, 1.040464011), (3, 2, 1.068172468)],
        (4.0, 1.0): [(1, 6, 0.796067008), (1, 5, 0.829882291),
                     (1, 4, 0.870449430), (1, 3, 0.922638262),
                     (2, 5, 0.956723888), (3, 2, 1.001436104),
                     (8, 5, 1.042774812), (5, 3, 1.069967734),
                     (7, 4, 1.104604265), (9, 5, 1.126063110),
                     (11, 6, 1.140744715)],
        (3.0, 0.8): [(1, 6, 0.907549714), (1, 5, 0.941091042),
                     (1, 4, 0.983886315), (4, 3, 1.045339335),
                     (7, 5, 1.091226284), (3, 2, 1.160575944)],
    }

    @pytest.mark.parametrize("ratio, m", list(FROZEN))
    def test_criterion_9_closures_frozen(self, ratio, m):
        want = sorted([(0, 1, 0.0)] + [e for p, q, I in self.FROZEN[ratio, m]
                                       for e in ((p, q, I), (-p, q, -I))],
                      key=lambda e: e[2])
        got = sorted(((c.p, c.q, lev.I) for lev, c in rational_closures(
            make_ellipsoid(ratio), m, n_levels=41, q_max=6)),
            key=lambda e: e[2])
        assert [e[:2] for e in got] == [e[:2] for e in want]
        for (_, _, I), (_, _, I_want) in zip(got, want):
            assert I == pytest.approx(I_want, abs=1e-7)


    def test_non_monotone_winding_keeps_every_root(self):
        # on the oblate ellipsoid at m = 1 the winding is not monotone in
        # I: w = 19/21 at two levels on each side of I = 0, of which a
        # search that skipped every fraction found once kept one a side
        found = rational_closures(make_ellipsoid(0.5), 1.0, n_levels=33,
                                  q_max=21)
        hits = sorted((lev.I, c.p) for lev, c in found
                      if (c.q, abs(c.p)) == (21, 19))
        assert [p for _, p in hits] == [-19, -19, 19, 19]
        assert [I for I, _ in hits] == pytest.approx(
            [-1.2176863, -1.0764254, 1.0764254, 1.2176863], abs=1e-7)

    @pytest.mark.parametrize("ratio, m", [(0.5, 1.0), (0.403, 1.166),
                                          (1.5, 0.8), (3.0, 0.3)])
    def test_found_sets_are_mirror_symmetric(self, ratio, m):
        # t -> ell - t maps an ellipsoid to itself, and a level I of
        # winding p/q to the level -I of winding -p/q
        found = [(c.p, c.q, lev.I) for lev, c in rational_closures(
            make_ellipsoid(ratio), m, n_levels=33, q_max=8)]
        got = sorted(found, key=lambda e: e[2])
        mirror = sorted(((-p, q, -I) for p, q, I in found),
                        key=lambda e: e[2])
        assert [e[:2] for e in got] == [e[:2] for e in mirror]
        assert [e[2] for e in got] == pytest.approx([e[2] for e in mirror],
                                                    abs=1e-7)


class TestVerdict:
    """The two contact verdicts the paper proves, on their production paths."""

    def test_sphere_certified(self, sphere):
        assert any(lo < 1.0 < hi for lo, hi in
                   contact_interval(sphere).certified_intervals)
        assert h_min(sphere, 1.0) == pytest.approx(2.0, abs=1e-7)

    def test_negative_action_witness(self):
        # a closed orbit of negative action rules out contact type
        # (McDuff), and the certified floor must fail at its strength
        p, t_lat = make_negative_action(0.1, 0.9)
        lat = latitude_action(p, t_lat)
        g, dg, _ = map(float, p.jet(t_lat, 1))
        assert lat.action < 0.0
        assert lat.m_t0 * abs(dg) == pytest.approx(g, rel=1e-12)
        assert not any(lo < lat.m_t0 < hi for lo, hi in
                       contact_interval(p).certified_intervals)
        assert h_min(p, lat.m_t0) <= 0.0
