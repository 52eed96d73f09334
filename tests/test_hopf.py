"""Double cover and linking tests.

The algebra layer is checked against the defining identities (Hamilton
product, rotation conjugation, projection to orthonormal frame pairs).
The contact-form pullback identity is checked pointwise at random tangent
vectors and through the sampled residual sup. Linking numbers come from
configurations with known answers: fibers of the projection link once,
separated circles do not link, and a two-twist loop links its antipode
twice. The crossing count is also checked against an independent oracle,
the exact Gauss integral as a sum of solid angles, on random rotations of
fiber pairs and torus knots. Lifts are exercised on fiber loops and
latitude frames where the one-versus-two traversal behavior is forced by
the topology.
"""
from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from magflow import cli, hopf
from magflow.hopf import (
    KnotPolyline,
    QI,
    QJ,
    antipodal_link_parity,
    dp0,
    gauss_linking,
    hessian_convexity,
    imag_part,
    knot_from_samples,
    lambda_st,
    lift_path,
    p0,
    psi0,
    pullback_residual,
    q_rho,
    quat_conj,
    quat_from_rotation,
    quat_mul,
    quat_norm,
    rotation_matrix,
    sphere_frames,
    star_embed,
)
from magflow.profiles import make_sphere
from magflow.reduced import find_latitude

QK = np.array([0.0, 0.0, 0.0, 1.0])   # i j = k; the package needs only i, j


def _rand_unit(rng, n=4):
    u = rng.normal(size=n)
    return u / np.linalg.norm(u)


def _rand_tangent(rng, U):
    W = rng.normal(size=4)
    return W - np.dot(W, U) * U


def _fiber_knot(U0, n=512):
    s = np.linspace(0.0, 2.0 * np.pi, n + 1)
    circ = np.stack([np.cos(s), np.sin(s),
                     np.zeros_like(s), np.zeros_like(s)], axis=1)
    return KnotPolyline(quat_mul(circ, U0))


def _two_twist(n):
    s = np.linspace(0.0, 2.0 * np.pi, n + 1)
    return KnotPolyline(np.stack([0.6 * np.cos(2 * s), 0.6 * np.sin(2 * s),
                                  0.8 * np.cos(s), 0.8 * np.sin(s)], axis=1))


def _small_circle(P, e1, e2, rad, n=512):
    s = np.linspace(0.0, 2.0 * np.pi, n + 1)
    pts = (np.cos(rad) * P[None, :]
           + np.sin(rad) * (np.cos(s)[:, None] * e1
                            + np.sin(s)[:, None] * e2))
    return KnotPolyline(pts)


def _banchoff_sum(X, Y):
    """Gauss integral of two closed polygons in R^3, the reference for the
    crossing count: minus the signed solid angles of the Gauss-map
    quadrilaterals of all segment pairs over 4 pi (Banchoff 1976), each
    split into two triangles with solid angle
    2 atan2(det[a, b, c], 1 + a.b + b.c + c.a)."""
    def dot(p, q):
        return np.sum(p * q, axis=-1)

    U = X[:, None, :] - Y[None, :, :]
    U /= np.linalg.norm(U, axis=2)[..., None]
    a, b, c, d = U[:-1, :-1], U[1:, :-1], U[1:, 1:], U[:-1, 1:]
    ac = dot(a, c)
    axc = np.cross(a, c)
    total = np.sum(np.arctan2(-dot(b, axc), 1.0 + dot(a, b) + dot(b, c) + ac)
                   + np.arctan2(dot(d, axc), 1.0 + ac + dot(c, d) + dot(d, a)))
    return float(-total / (2.0 * np.pi))


def _rotation4(seed):
    Q, R = np.linalg.qr(np.random.default_rng(seed).normal(size=(4, 4)))
    return Q * np.sign(np.diag(R))


def _torus_knot(p, q, alpha, n):
    s = np.linspace(0.0, 2.0 * np.pi, n + 1)
    a, b = np.cos(alpha), np.sin(alpha)
    return np.stack([a * np.cos(p * s), a * np.sin(p * s),
                     b * np.cos(q * s), b * np.sin(q * s)], axis=1)


class TestQuaternionAlgebra:
    def test_basis_products(self):
        assert np.allclose(quat_mul(QI, QJ), QK)
        assert np.allclose(quat_mul(QJ, QK), QI)
        assert np.allclose(quat_mul(QK, QI), QJ)
        assert np.allclose(quat_mul(QI, QI), -np.array([1.0, 0, 0, 0]))

    def test_associative_and_norm(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a, b, c = rng.normal(size=(3, 4))
            lhs = quat_mul(quat_mul(a, b), c)
            rhs = quat_mul(a, quat_mul(b, c))
            assert np.allclose(lhs, rhs, atol=1e-12)
            assert quat_norm(quat_mul(a, b)) == pytest.approx(
                quat_norm(a) * quat_norm(b), rel=1e-12)

    def test_conj_antihomomorphism(self):
        rng = np.random.default_rng(6)
        a, b = rng.normal(size=(2, 4))
        assert np.allclose(quat_conj(quat_mul(a, b)),
                           quat_mul(quat_conj(b), quat_conj(a)), atol=1e-12)

    def test_rotation_matrix_orthogonal(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            U = _rand_unit(rng)
            R = rotation_matrix(U)
            assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(R) == pytest.approx(1.0, rel=1e-12)

    def test_rotation_round_trip(self):
        rng = np.random.default_rng(9)
        Us = [_rand_unit(rng) for _ in range(10)]
        Bs = np.array([rotation_matrix(U) for U in Us])
        for U, B in zip(Us, Bs):
            V = quat_from_rotation(B)
            assert min(np.max(np.abs(V - U)),
                       np.max(np.abs(V + U))) < 1e-12
        stacked = quat_from_rotation(Bs)
        assert stacked.shape == (10, 4)
        assert np.array_equal(stacked,
                              np.array([quat_from_rotation(B) for B in Bs]))


class TestProjection:
    def test_sign_ambiguity_exact(self):
        rng = np.random.default_rng(7)
        U = _rand_unit(rng)
        a1, a2 = p0(U)
        b1, b2 = p0(-U)
        assert np.array_equal(a1, b1)
        assert np.array_equal(a2, b2)

    def test_projects_to_orthonormal_frame(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            u1, u2 = p0(_rand_unit(rng))
            x, v = imag_part(u1), imag_part(u2)
            assert np.linalg.norm(x) == pytest.approx(1.0, rel=1e-12)
            assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
            assert np.dot(x, v) == pytest.approx(0.0, abs=1e-12)

    def test_base_point_sign_lock(self):
        # at U = 1 the differential sends s i + w j to (2w k, -2s k)
        U = np.array([1.0, 0.0, 0.0, 0.0])
        for s, w in [(1.0, 0.0), (0.0, 1.0), (0.7, -0.3)]:
            d1, d2 = dp0(U, s * QI + w * QJ)
            assert np.allclose(d1, 2.0 * w * QK, atol=1e-14)
            assert np.allclose(d2, -2.0 * s * QK, atol=1e-14)

    def test_tangency_guard(self):
        U = np.array([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            dp0(U, np.array([1.0, 0.0, 0.0, 0.0]))

    def test_differential_vs_finite_difference(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(20):
            U = _rand_unit(rng)
            W = _rand_tangent(rng, U)
            h = 1e-6
            Up = (U + h * W) / np.linalg.norm(U + h * W)
            Um = (U - h * W) / np.linalg.norm(U - h * W)
            ds = dp0(U, W)
            for comp in range(2):
                fd = (p0(Up)[comp] - p0(Um)[comp]) / (2.0 * h)
                worst = max(worst, float(np.max(np.abs(fd - ds[comp]))))
        assert worst < 1e-7

    def test_pullback_identity_pointwise(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            U = _rand_unit(rng)
            W = _rand_tangent(rng, U)
            res = psi0(p0(U), dp0(U, W)) + 2.0 * lambda_st(U, W)
            assert abs(res) < 1e-12 * max(1.0, float(np.linalg.norm(W)))

    def test_stacked_rows_match_single(self):
        rng = np.random.default_rng(14)
        U = np.array([_rand_unit(rng) for _ in range(12)])
        W = np.array([_rand_tangent(rng, u) for u in U])
        P, D = p0(U), dp0(U, W)
        psi, lam = psi0(P, D), lambda_st(U, W)
        assert psi.shape == lam.shape == (12,)
        for k in range(12):
            pk, dk = p0(U[k]), dp0(U[k], W[k])
            for c in range(2):
                assert np.array_equal(P[c][k], pk[c])
                assert np.array_equal(D[c][k], dk[c])
            assert psi[k] == psi0(pk, dk)
            assert lam[k] == lambda_st(U[k], W[k])

    def test_stacked_tangency_guard(self):
        rng = np.random.default_rng(15)
        U = np.array([_rand_unit(rng) for _ in range(5)])
        W = np.array([_rand_tangent(rng, u) for u in U])
        W[3] += 0.1 * U[3]
        with pytest.raises(ValueError, match="not tangent"):
            dp0(U, W)

    def test_pullback_residual_sup(self):
        assert pullback_residual(500) < 1e-10
        assert pullback_residual(0) == 0.0

    def test_lambda_right_invariant(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            U = _rand_unit(rng)
            Q = _rand_unit(rng)
            W = _rand_tangent(rng, U)
            lhs = lambda_st(quat_mul(U, Q), quat_mul(W, Q))
            assert lhs == pytest.approx(lambda_st(U, W), abs=1e-12)


class TestKnotPolyline:
    def _circle(self, n=256):
        s = np.linspace(0.0, 2.0 * np.pi, n + 1)
        return np.stack([np.cos(s), np.sin(s),
                         np.zeros_like(s), np.zeros_like(s)], axis=1)

    def test_validation(self):
        with pytest.raises(ValueError):
            KnotPolyline(self._circle()[:3])
        with pytest.raises(ValueError):
            KnotPolyline(1.01 * self._circle())
        open_pts = self._circle()[:-1]
        with pytest.raises(ValueError):
            KnotPolyline(open_pts)
        with pytest.raises(ValueError):
            KnotPolyline(self._circle(16))     # chords about 0.39

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_point_named(self, bad):
        # a norm check that nan passes would let the point through to gap
        pts = self._circle()
        pts[5, 2] = bad
        with pytest.raises(ValueError, match=r"^point 5 is not a finite "):
            KnotPolyline(pts)

    def test_antipode(self):
        k = KnotPolyline(self._circle())
        a = k.antipode()
        assert np.allclose(a.points, -k.points)

    def test_min_distance_symmetric(self):
        # circles at -+P are more than 1 apart, beyond the gate both ways;
        # two circles 5e-4 apart in radius are within it, both ways
        P = np.array([1.0, 0, 0, 0])
        e1 = np.array([0.0, 1, 0, 0])
        e2 = np.array([0.0, 0, 1, 0])
        cA = _small_circle(P, e1, e2, 0.4)
        cB = _small_circle(-P, e1, e2, 0.4)
        assert cA.gap(cB) == cB.gap(cA) == np.inf
        cC = _small_circle(P, e1, e2, 0.4005, n=509)
        d1, d2 = cA.gap(cC), cC.gap(cA)
        assert d1 == pytest.approx(d2, rel=1e-12)
        assert 4e-4 < d1 < 5e-4

    def test_crossing_chords_not_disjoint(self):
        # vertices 0.056 apart, but the chords through +-1 meet there
        h = 2.0 * np.pi / 80
        s = (np.arange(81) + 0.5) * h
        zero = np.zeros_like(s)
        kA = KnotPolyline(np.stack([np.cos(s), np.sin(s), zero, zero], 1))
        kB = KnotPolyline(np.stack([np.cos(s), zero, np.sin(s), zero], 1))
        vertex_gap = np.min(np.linalg.norm(
            kA.points[:, None] - kB.points[None], axis=2))
        assert vertex_gap > 0.05
        assert kA.gap(kB) < 1e-15
        with pytest.raises(ValueError, match="too close"):
            gauss_linking(kA, kB)

    def test_segment_distance_against_sampling(self):
        # clamped closest points against a 201 x 201 sampling of both
        # segments, whose minimum is at most (|u| + |v|) / 400 too high;
        # parallel and crossing pairs included
        rng = np.random.default_rng(21)
        a, u, c, v = rng.normal(size=(4, 200, 4))
        v[:20] = 0.5 * u[:20]
        c[20:40] = a[20:40] + 0.5 * u[20:40] - 0.3 * v[20:40]
        got = hopf._segment_distance(a, u, c, v)
        grid = np.linspace(0.0, 1.0, 201)[:, None]
        sampled = np.array([np.min(np.linalg.norm(
            (a[k] + grid * u[k])[:, None] - (c[k] + grid * v[k])[None],
            axis=-1)) for k in range(len(a))])
        slack = (np.linalg.norm(u, axis=1) + np.linalg.norm(v, axis=1)) / 400
        assert np.all(got <= sampled + 1e-12)
        assert np.all(got >= sampled - slack)
        assert np.max(got[20:40]) < 1e-12

    @pytest.mark.parametrize("seed", [1, 10, 23])
    def test_min_distance_is_min_over_all_pairs(self, seed):
        # coarse circles 5e-4 apart, one lifted off the other's plane, with
        # 64 and 65 segments: the closest segments are not the ones with
        # the closest midpoints, and the radius and the row blocks of
        # _near_pairs drop no pair
        def circle(n, offset, height, R):
            s = np.linspace(0.0, 2.0 * np.pi, n + 1) + offset
            zero = np.zeros_like(s)
            return KnotPolyline(np.stack([
                np.cos(height) * np.cos(s), np.cos(height) * np.sin(s),
                np.sin(height) + zero, zero], axis=1) @ R)
        rng = np.random.default_rng(seed)
        kA = circle(64, rng.uniform(0.0, 1.0), 0.0, _rotation4(seed))
        kB = circle(65, rng.uniform(0.0, 1.0), 5e-4, _rotation4(seed))
        i, j = np.divmod(np.arange(len(kA) * len(kB)), len(kB))
        u, v = np.diff(kA.points, axis=0), np.diff(kB.points, axis=0)
        dist = hopf._segment_distance(kA.points[i], u[i], kB.points[j], v[j])
        brute = np.min(dist)
        closest_mids = np.argmin(np.linalg.norm(
            (kA.points[:-1] + 0.5 * u)[i] - (kB.points[:-1] + 0.5 * v)[j],
            axis=1))
        assert brute < dist[closest_mids]
        assert brute <= hopf.LINK_GAP
        assert kA.gap(kB) == brute
        assert kB.gap(kA) == pytest.approx(brute, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(96, 200),
           m=st.integers(96, 200), wobble=st.floats(0.0, 0.02),
           offset=st.floats(0.0, 1.0), lift=st.floats(0.0, 3e-3),
           same_circle=st.booleans(), small=st.booleans())
    @example(seed=1, n=96, m=96, wobble=1e-15, offset=0.0, lift=0.0,
             same_circle=True, small=False)
    @example(seed=2, n=96, m=131, wobble=0.0, offset=0.3, lift=9e-4,
             same_circle=True, small=False)
    @example(seed=2, n=96, m=131, wobble=0.0, offset=0.3, lift=1.1e-3,
             same_circle=True, small=False)
    @example(seed=3, n=96, m=131, wobble=0.0, offset=0.3, lift=5e-4,
             same_circle=True, small=True)
    def test_pair_bound_drops_no_minimum(self, seed, n, m, wobble, offset,
                                         lift, same_circle, small):
        # random polygons near one circle, the second lifted about lift
        # off it, so that the minimum falls on either side of LINK_GAP; or
        # near two circles in general position, far apart. The circles are
        # great ones, or of radius 1e-3, where one window of _near_pairs
        # holds most segments. The pairs that the midpoint bound of gap
        # drops never hold the minimum: gap is the minimum over all segment
        # pairs or inf. The examples: polygons that coincide to roundoff,
        # where the closest midpoints (1.04e-17 apart) are nearer than any
        # segment pair; minima at 9e-4 and 1.1e-3, one each side of the
        # gate; and two small circles 5e-4 apart
        rng = np.random.default_rng(seed)
        base = np.arccos(1e-3) if small else 0.0

        def polygon(k, R, height):
            s = np.linspace(0.0, 2.0 * np.pi, k + 1) + offset
            zero = np.zeros_like(s)
            pts = np.stack([np.cos(height) * np.cos(s),
                            np.cos(height) * np.sin(s),
                            np.sin(height) + zero, zero], axis=1) @ R
            pts[:-1] += wobble * rng.normal(size=(k, 4)) / np.sqrt(k)
            pts[-1] = pts[0]
            return KnotPolyline(pts / np.linalg.norm(pts, axis=1)[:, None])
        kA = polygon(n, _rotation4(seed % 997), base)
        kB = polygon(m, _rotation4(seed % 997 if same_circle
                                   else seed % 991 + 1000), base + lift)
        i, j = np.divmod(np.arange(len(kA) * len(kB)), len(kB))
        u, v = np.diff(kA.points, axis=0), np.diff(kB.points, axis=0)
        brute = np.min(hopf._segment_distance(kA.points[i], u[i],
                                              kB.points[j], v[j]))
        assert kA.gap(kB) == (brute if brute <= hopf.LINK_GAP else np.inf)

    def test_row_blocks_bound_memory(self):
        # a long chord widens the search radius for every row: a dense
        # circle against one 5e-4 away with a 0.09 chord has about 30
        # candidates per segment, 58,000 pairs whose data peak near 18 MB
        # when all rows go through at once
        def circle(s, height):
            return KnotPolyline(np.stack([
                np.cos(height) * np.cos(s), np.cos(height) * np.sin(s),
                np.full_like(s, np.sin(height)), np.zeros_like(s)], axis=1))
        kA = circle(np.linspace(0.0, 2.0 * np.pi, 2001), 0.0)
        kB = circle(np.r_[np.linspace(0.0, 2.0 * np.pi - 0.09, 2000),
                          2.0 * np.pi], 5e-4)
        tracemalloc.start()
        try:
            d = kA.gap(kB)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d == pytest.approx(5e-4, rel=1e-6)
        assert peak <= 4 * 2**20

    def test_from_samples_closes_and_resamples(self):
        pts = self._circle(400)[:-1]           # open by one sample
        k = knot_from_samples(pts, n=256)
        assert len(k) == 256
        assert k.points.shape == (257, 4)
        assert np.allclose(k.points[0], k.points[-1])
        assert np.allclose(np.linalg.norm(k.points, axis=1), 1.0,
                           atol=1e-12)

    def test_json_round_trip(self, tmp_path):
        # the file hopf link reads: a JSON array of unit 4-vectors
        k = KnotPolyline(self._circle(64))
        path = tmp_path / "knot.json"
        path.write_text(json.dumps(k.points.tolist()))
        assert np.array_equal(cli._load_knot(path).points, k.points)


class TestLinking:
    @pytest.mark.parametrize("n", [64, 512])
    def test_fiber_pair_links_once(self, n):
        rng = np.random.default_rng(14)
        k0 = _fiber_knot(np.array([1.0, 0, 0, 0]), n)
        k1 = _fiber_knot(_rand_unit(rng), n)
        lk = gauss_linking(k0, k1)
        assert lk == 1
        assert gauss_linking(k1, k0) == lk
        # the crossing count is an integer, and so is the exact Gauss sum
        pole = hopf._choose_pole(np.vstack([k0.points[:-1], k1.points[:-1]]))
        X = hopf._stereographic(k0.points, pole)
        Y = hopf._stereographic(k1.points, pole)
        assert hopf._gauss_double_sum(X, Y) == lk
        assert abs(_banchoff_sum(X, Y) - lk) < 1e-9

    def test_chart_keeps_orientation(self):
        # central differences of the chart along a positive tangent frame
        # of S^3, outward normal first, give a positive frame of R^3 with
        # determinant (1 - <p, pole>)^-3, the conformal factor cubed; no
        # linking number is involved
        rng = np.random.default_rng(22)
        h = 1e-6
        for _ in range(32):
            p, pole = _rand_unit(rng), _rand_unit(rng)
            if np.dot(p, pole) > 0.8:
                continue
            Q = np.linalg.qr(np.column_stack([p, rng.normal(size=(4, 3))]))[0]
            Q[:, 0] = p
            Q[:, 3] *= np.sign(np.linalg.det(Q))
            T = Q[:, 1:].T
            J = (hopf._stereographic(np.cos(h) * p + np.sin(h) * T, pole)
                 - hopf._stereographic(np.cos(h) * p - np.sin(h) * T, pole)
                 ) / (2.0 * h)
            assert np.linalg.det(J) == pytest.approx(
                (1.0 - np.dot(p, pole)) ** -3, rel=1e-6)

    def test_sign_ignores_the_pole(self, monkeypatch):
        # the 8 seeded candidates farthest from the knots, poles with
        # either sign of the last coordinate among them, give one sign
        cands = np.random.default_rng(hopf._POLE_SEED).normal(size=(512, 4))
        cands /= np.linalg.norm(cands, axis=1)[:, None]
        fibers = (_fiber_knot(np.array([1.0, 0, 0, 0])),
                  _fiber_knot(_rand_unit(np.random.default_rng(14))))
        twist = _two_twist(1024)
        for (k1, k2), lk in [(fibers, 1), ((twist, twist.antipode()), 2)]:
            pts = np.vstack([k1.points[:-1], k2.points[:-1]])
            far = cands[np.argsort(np.max(cands @ pts.T, axis=1))[:8]]
            assert np.array_equal(far[0], hopf._choose_pole(pts))
            assert set(np.sign(far[:, 3])) == {-1.0, 1.0}
            for pole in far:
                monkeypatch.setattr(hopf, "_choose_pole", lambda _: pole)
                assert hopf._linking_number(k1, k2) == lk
            monkeypatch.undo()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_isometries_keep_or_reverse_the_sign(self, seed):
        # x -> a x b preserves the orientation of S^3, so moved fibers of
        # U -> e^{is} U still link +1; conjugation reverses it: -1
        rng = np.random.default_rng(seed)
        a, b, U, V = (_rand_unit(rng) for _ in range(4))
        fibers = [_fiber_knot(W, 128).points for W in (U, V)]
        k1, k2 = (KnotPolyline(quat_mul(quat_mul(a, f), b)) for f in fibers)
        assume(k1.gap(k2) > hopf.LINK_GAP)
        assert gauss_linking(k1, k2) == 1
        assert gauss_linking(KnotPolyline(quat_conj(k1.points)),
                             KnotPolyline(quat_conj(k2.points))) == -1

    def test_non_integer_count_raises(self, monkeypatch):
        # only a broken crossing count can reach this message
        k0 = _fiber_knot(np.array([1.0, 0, 0, 0]), 64)
        k1 = _fiber_knot(_rand_unit(np.random.default_rng(14)), 64)
        monkeypatch.setattr(hopf, "_gauss_double_sum", lambda X, Y: 0.5)
        with pytest.raises(RuntimeError,
                           match="crossing count 0.5 is not an integer"):
            gauss_linking(k0, k1)

    def test_separated_circles_unlinked(self):
        P = np.array([1.0, 0, 0, 0])
        e1 = np.array([0.0, 1, 0, 0])
        e2 = np.array([0.0, 0, 1, 0])
        assert gauss_linking(_small_circle(P, e1, e2, 0.4),
                             _small_circle(-P, e1, e2, 0.4)) == 0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           knot=st.one_of(
               st.tuples(st.just("fibers"), st.integers(64, 256)),
               st.tuples(st.just("small"), st.integers(6, 10)),
               st.tuples(st.sampled_from([(1, 2), (2, 1), (2, 3), (3, 2)]),
                         st.floats(0.35, 1.2))))
    @example(seed=0, knot=("small", 6))
    def test_crossing_count_matches_solid_angles(self, seed, knot):
        # fibers, torus knots against their antipodes, and a Hopf link of
        # two coarse circles of radius 0.01, whose chords are so long
        # against their size that one window of _near_pairs holds most
        # segments
        R = _rotation4(seed)
        if knot[0] == "fibers":
            n = knot[1]
            U = _rotation4(seed + 1)[0]
            k1 = KnotPolyline(_fiber_knot(np.eye(4)[0], n).points @ R)
            k2 = KnotPolyline(_fiber_knot(U, n).points @ R)
        elif knot[0] == "small":
            s = np.linspace(0.0, 2.0 * np.pi, knot[1] + 1)
            one, zero = np.ones_like(s), np.zeros_like(s)
            c, d = 0.01 * np.cos(s), 0.01 * np.sin(s)
            k1, k2 = (KnotPolyline(pts / np.linalg.norm(pts, axis=1)[:, None]
                                   @ R) for pts in (
                np.stack([one, c, d, zero], axis=1),
                np.stack([one, 0.01 + c, zero, d], axis=1)))
        else:
            (p, q), alpha = knot
            k1 = KnotPolyline(_torus_knot(p, q, alpha, 256) @ R)
            k2 = k1.antipode()
        assume(k1.gap(k2) > hopf.LINK_GAP)
        pole = hopf._choose_pole(np.vstack([k1.points[:-1], k2.points[:-1]]))
        X = hopf._stereographic(k1.points, pole)
        Y = hopf._stereographic(k2.points, pole)
        ref = _banchoff_sum(X, Y)
        assert abs(ref - round(ref)) < 1e-8
        assert hopf._gauss_double_sum(X, Y) == round(ref)

    def test_degenerate_projection_raises(self):
        # a vertex of Y sits 0.5 above the middle of X's segment (0, 0)-(2, 0)
        # along the module's viewing direction: the crossing is undecided
        X = np.array([[0.0, 0, 0], [2, 0, 0], [0, 2, 0], [0, 0, 0]])
        Y = np.array([[1.0, 0, 0.5], [1, 0.5, -1], [3, -1, 0], [1, 0, 0.5]])
        F = hopf._viewing_frame()
        with pytest.raises(RuntimeError, match="vertex within roundoff"):
            hopf._gauss_double_sum(X @ F.T, Y @ F.T)
        # moved off the segment, Y goes under X and back over it: linked
        Y[[0, -1], 1] = 0.25
        X, Y = X @ F.T, Y @ F.T
        assert abs(hopf._gauss_double_sum(X, Y)) == 1.0
        assert hopf._gauss_double_sum(X, Y) == round(_banchoff_sum(X, Y))

    def test_polygons_meeting_at_a_crossing_raise(self):
        # Y's first edge passes through (1, 0, 0) on X's edge (0, 0)-(2, 0)
        X = np.array([[0.0, 0, 0], [2, 0, 0], [0, 2, 0], [0, 0, 0]])
        Y = np.array([[1.0, -1, -1], [1, 0.5, 0.5], [-1, -1, 0],
                      [1, -1, -1]])
        F = hopf._viewing_frame()
        with pytest.raises(RuntimeError, match="same height"):
            hopf._gauss_double_sum(X @ F.T, Y @ F.T)

    def test_crossing_counts_must_agree(self):
        # an open path over one edge of a triangle: one count is 1, the
        # other 0, which no pair of closed polygons can give
        X = np.array([[0.0, 0, 0], [2, 0, 0], [0, 2, 0], [0, 0, 0]])
        Y = np.array([[1.0, -1, 1], [1, 0.5, 1]])
        F = hopf._viewing_frame()
        with pytest.raises(RuntimeError, match="crossing counts disagree"):
            hopf._gauss_double_sum(X @ F.T, Y @ F.T)

    def test_sum_off_integer_raises(self, monkeypatch):
        # the exact sum misses an integer only by roundoff; never round 1.5
        monkeypatch.setattr(hopf, "_gauss_double_sum", lambda X, Y: 1.5)
        with pytest.raises(RuntimeError):
            gauss_linking(_fiber_knot(np.array([1.0, 0, 0, 0])),
                          _fiber_knot(np.array([0.0, 0, 1, 0])))

    def test_too_close_rejected(self):
        k = _fiber_knot(np.array([1.0, 0, 0, 0]))
        with pytest.raises(ValueError):
            gauss_linking(k, k)

    def test_two_twist_antipodal_even(self):
        rep = antipodal_link_parity(_two_twist(1024))
        assert rep.disjoint
        assert rep.lk == 2
        assert rep.even

    def test_antipodal_memory_bounded(self):
        # 3072 segments: criterion 9's finest knot; all n x n pair data
        # would be hundreds of MB. The crossing count holds O(n) arrays;
        # gap's row blocks hold most of the peak, since this knot
        # is about equidistant from its antipode
        knot = _two_twist(3072)
        tracemalloc.start()
        try:
            rep = antipodal_link_parity(knot)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.lk == 2
        assert peak <= 4 * 2**20

    def test_fiber_self_antipodal(self):
        # e^{i pi} U = -U lies on the fiber, so the antipode is not disjoint
        rep = antipodal_link_parity(_fiber_knot(np.array([1.0, 0, 0, 0])))
        assert rep.disjoint is False
        assert rep.lk is None
        assert rep.even is None


class TestLift:
    def test_fiber_loop_needs_two_turns(self):
        sgrid = np.linspace(0.0, np.pi, 400)
        circ = np.stack([np.cos(sgrid), np.sin(sgrid),
                         np.zeros_like(sgrid), np.zeros_like(sgrid)], axis=1)
        Upath = quat_mul(circ, np.array([1.0, 0, 0, 0]))
        xs = np.array([imag_part(p0(u)[0]) for u in Upath])
        vs = np.array([imag_part(p0(u)[1]) for u in Upath])
        one = lift_path(xs, vs)
        assert one.closed_after_one is False
        two = lift_path(np.vstack([xs, xs[1:]]), np.vstack([vs, vs[1:]]))
        assert two.closed_after_one is True
        assert two.max_residual < 1e-9

    def test_constant_path(self):
        x = np.repeat([[0.0, 0.0, 1.0]], 50, axis=0)
        v = np.repeat([[1.0, 0.0, 0.0]], 50, axis=0)
        lift = lift_path(x, v)
        assert np.max(np.abs(np.diff(lift.U, axis=0))) == 0.0
        assert lift.closed_after_one is True

    def test_latitude_double_lift(self):
        p = make_sphere()
        lat = find_latitude(p, 0.2, side="upper")
        th = np.linspace(0.0, 2.0 * np.pi, 800)
        x, v = sphere_frames(np.full_like(th, lat.t0),
                             np.full_like(th, lat.sign * np.pi / 2), th)
        assert lift_path(x, v).closed_after_one is False
        th2 = np.linspace(0.0, 4.0 * np.pi, 1600)
        x2, v2 = sphere_frames(np.full_like(th2, lat.t0),
                               np.full_like(th2, lat.sign * np.pi / 2), th2)
        lift2 = lift_path(x2, v2)
        assert lift2.closed_after_one is True
        # the doubled lift is one antipodally invariant circle
        kn = knot_from_samples(lift2.U, n=1024)
        assert kn.gap(kn.antipode()) < 1e-9
        rep = antipodal_link_parity(kn)
        assert rep.disjoint is False

    def test_orthogonality_guard(self):
        x = np.repeat([[0.0, 0.0, 1.0]], 50, axis=0)
        v = np.repeat([[0.1, 0.0, 1.0]], 50, axis=0)
        with pytest.raises(ValueError):
            lift_path(x, v)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_frame_named(self, bad):
        theta = np.linspace(0.0, 2.0 * np.pi, 101)
        x, v = sphere_frames(np.full_like(theta, np.pi / 4),
                             np.full_like(theta, np.pi / 2), theta)
        v[7, 1] = bad
        with pytest.raises(ValueError, match=r"^frame 7 is not a finite "):
            lift_path(x, v)

    def test_coarse_path_guard(self):
        th = np.linspace(0.0, 2.0 * np.pi, 8)
        x = np.stack([np.cos(th), np.sin(th), np.zeros_like(th)], axis=1)
        v = np.stack([-np.sin(th), np.cos(th), np.zeros_like(th)], axis=1)
        with pytest.raises(ValueError):
            lift_path(x, v)


class TestHessianScan:
    def test_round_profile_unit_eigenvalue(self):
        scan = hessian_convexity(lambda z: 2.0, 64)
        assert scan.min_eigenvalue == pytest.approx(1.0, abs=1e-6)

    def test_gentle_bump_stays_convex(self):
        def rho(z):
            z = np.asarray(z)
            return 2.0 * np.exp(0.05 * z[..., 0])
        assert hessian_convexity(rho, 128).min_eigenvalue > 0.0

    def test_steep_bump_loses_convexity(self):
        def rho(z):
            z = np.asarray(z)
            c = np.array([1.0, 0.0, 0.0, 0.0])
            return 2.0 + 5.0 * np.exp(-8.0 * np.sum((z - c) ** 2, axis=-1))
        assert hessian_convexity(rho, 256).min_eigenvalue < 0.0

    def test_q_rho_homogeneous(self):
        rng = np.random.default_rng(15)
        z = rng.normal(size=4)
        q1 = q_rho(lambda w: 2.0, z)
        q2 = q_rho(lambda w: 2.0, 2.0 * z)
        assert q2 == pytest.approx(4.0 * q1, rel=1e-12)

    def test_star_embed_positive_only(self):
        with pytest.raises(ValueError):
            star_embed(lambda z: -1.0, np.array([1.0, 0, 0, 0]))
