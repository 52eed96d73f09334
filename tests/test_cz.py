"""Index computation tests.

Synthetic determinant-one paths with known winding intervals pin down the
interval-to-index rule and the degeneracy nudge. The m = 0 fiber and the
round-sphere latitude are rigid rotations in the trivialization, so their
intervals collapse to integers and the index follows the lower-limit
convention. Ellipsoid latitudes give genuinely nondegenerate elliptic
paths whose closed-form turn count must land inside the computed interval.
Random fine-sampled SL(2) paths check the closed-form interval against a
brute-force winding over 4096 directions.
"""
from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import solve_ivp

from magflow import cz
from magflow.contact import ContactPrimitiveError, reeb_factor
from magflow.cz import (
    FrameError,
    SymplecticPath,
    chi_project,
    cz_fiber,
    cz_index,
    dynamical_convexity_report,
    frame_state,
    index_from_interval,
    integrate_linearized,
    latitude_cz,
    latitude_deviation,
    linearized_rhs,
    path_deviation,
    winding_interval,
)
from magflow.flow import band_state, flow_rhs, integrate, level_average_ode
from magflow.numerics import StepSizeError
from magflow.profiles import make_ellipsoid, make_sphere, parse_profile_spec
from magflow.reduced import (
    birkhoff_action,
    find_latitude,
    regular_levels,
    turning_points,
)


@pytest.fixture(scope="module")
def sphere():
    return make_sphere()


@pytest.fixture(scope="module")
def ellipsoid():
    return make_ellipsoid(1.3)


def _rotation_stack(angles: np.ndarray) -> np.ndarray:
    c, s = np.cos(angles), np.sin(angles)
    R = np.empty((len(angles), 2, 2))
    R[:, 0, 0] = c
    R[:, 0, 1] = -s
    R[:, 1, 0] = s
    R[:, 1, 1] = c
    return R


def _synthetic(matrices: np.ndarray, T: float = 1.0) -> SymplecticPath:
    n = matrices.shape[0]
    return SymplecticPath(times=np.linspace(0.0, T, n), matrices=matrices,
                          det_defect=0.0, nfev=0)


def _wrap(x):
    return (x + np.pi) % (2.0 * np.pi) - np.pi


def _turn(matrices: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Angle from direction u to matrices @ u, in [-pi, pi)."""
    V = matrices @ np.vstack([np.cos(u), np.sin(u)])
    return _wrap(np.arctan2(V[..., 1, :], V[..., 0, :]) - u)


def _brute_windings(path: SymplecticPath, u: np.ndarray) -> np.ndarray:
    """Winding of Psi(tau) u summed step by step, one per angle in u."""
    V = path.matrices @ np.vstack([np.cos(u), np.sin(u)])
    steps = _wrap(np.diff(np.arctan2(V[:, 1, :], V[:, 0, :]), axis=0))
    assert np.max(np.abs(steps)) < 0.5 * np.pi
    return np.sum(steps, axis=0) / (2.0 * np.pi)


_GENERATORS = {"rotation": np.array([[0.0, -1.0], [1.0, 0.0]]),
               "shear": np.array([[0.0, 1.0], [0.0, 0.0]]),
               "boost": np.array([[1.0, 0.0], [0.0, -1.0]])}
_SEGMENTS = st.lists(st.tuples(st.sampled_from(sorted(_GENERATORS)),
                               st.floats(-0.02, 0.02), st.integers(1, 40)),
                     min_size=1, max_size=6)


class TestIndexRule:
    # interval strictly between integers: odd index 2k + 1
    def test_odd_cases(self):
        assert index_from_interval(0.6, 0.9) == (1, False)
        assert index_from_interval(-0.05, 0.05) == (0, False)
        assert index_from_interval(1.1, 1.4) == (3, False)

    def test_even_case(self):
        assert index_from_interval(1.8, 2.2) == (4, False)

    def test_degenerate_endpoint_nudged_down(self):
        idx, deg = index_from_interval(1.0 - 1e-9, 1.3)
        assert (idx, deg) == (2, True)

    def test_collapsed_integer_interval(self):
        assert index_from_interval(2.0, 2.0) == (3, True)

    def test_degenerate_upper_endpoint(self):
        assert index_from_interval(-0.2, 0.0) == (-1, True)


class TestSyntheticPaths:
    def test_rigid_rotation(self):
        tau = np.linspace(0.0, 2.0 * np.pi * 0.9, 2001)
        path = _synthetic(_rotation_stack(tau))
        iv = winding_interval(path)
        assert iv.lo == pytest.approx(0.9, abs=1e-9)
        assert iv.hi == pytest.approx(0.9, abs=1e-9)
        res = cz_index(path)
        assert (res.index, res.degenerate) == (1, False)

    def test_two_full_turns_degenerate(self):
        tau = np.linspace(0.0, 4.0 * np.pi, 4001)
        res = cz_index(_synthetic(_rotation_stack(tau)))
        assert (res.index, res.degenerate) == (3, True)
        assert res.interval.lo == pytest.approx(2.0, abs=1e-9)

    def test_conjugated_rotation(self):
        # same total turning, but the interval spreads without reaching 1/2
        tau = np.linspace(0.0, 2.0 * np.pi * 0.9, 2001)
        M = np.array([[1.3, 0.0], [0.0, 1.0 / 1.3]])
        Psi = M @ _rotation_stack(tau) @ np.linalg.inv(M)
        iv = winding_interval(_synthetic(Psi))
        assert iv.lo < 0.9 < iv.hi
        assert 0.0 < iv.length < 0.5
        res = cz_index(_synthetic(Psi))
        assert (res.index, res.degenerate) == (1, False)

    def test_hyperbolic(self):
        tau = np.linspace(0.0, 1.0, 1001)
        Psi = np.zeros((len(tau), 2, 2))
        Psi[:, 0, 0] = np.exp(tau)
        Psi[:, 1, 1] = np.exp(-tau)
        iv = winding_interval(_synthetic(Psi))
        assert -0.25 < iv.lo <= iv.hi < 0.25
        assert cz_index(_synthetic(Psi)).index == 0

    @settings(max_examples=60, deadline=None)
    @given(_SEGMENTS, st.floats(-0.05, 0.05))
    # a pure turn: Psi(T) is a rotation and both ends agree to roundoff
    @example([("boost", 0.0, 1), ("boost", 0.0, 1), ("boost", 0.0, 19),
              ("boost", 0.0, 40)], 0.013671875)
    def test_closed_form_matches_brute_force(self, segments, drift):
        # each step: a small rotation, shear or boost plus a steady turn
        mats = [np.eye(2)]
        for kind, size, count in segments:
            gen = size * _GENERATORS[kind] + drift * _GENERATORS["rotation"]
            step = np.eye(2) + gen + 0.5 * gen @ gen + gen @ gen @ gen / 6.0
            step /= np.sqrt(np.linalg.det(step))
            for _ in range(count):
                mats.append(step @ mats[-1])
        path = _synthetic(np.array(mats))
        iv = winding_interval(path)
        assert 0.0 <= iv.length < 0.5
        ends = _brute_windings(path, np.array([iv.u_lo, iv.u_hi]))
        assert ends == pytest.approx([iv.lo, iv.hi], abs=1e-9)
        grid = _brute_windings(path, np.pi * np.arange(4096) / 4096)
        assert iv.lo - 1e-12 <= np.min(grid)
        assert np.max(grid) <= iv.hi + 1e-12

    def test_rigid_rotation_deviation_floor(self):
        # Psi' Psi^-1 = J exactly; only the finite-difference bias remains
        tau = np.linspace(0.0, 2.0 * np.pi * 0.9, 4097)
        assert path_deviation(_synthetic(_rotation_stack(tau),
                                         T=float(tau[-1]))) < 1e-5


class TestCoframe:
    def test_generator_pairings(self, ellipsoid):
        # alpha(F) = m and eta(F) = 0 at any regular state, so the column
        # chi(F) = sqrt(h) (eta(F), alpha(F)) of Psi is (0, sqrt(h) m)
        rng = np.random.default_rng(3)
        n = 25
        t = rng.uniform(0.2, 0.8, n) * ellipsoid.ell
        phi = rng.uniform(-np.pi, np.pi, n)
        jet = ellipsoid.point_jet(2)
        for m in (0.1, 1.7, 3.0):
            states = np.zeros((9, n))
            states[0], states[1] = t, phi
            for k in range(n):
                states[3:6, k] = flow_rhs(jet, m)(0.0, states[:3, k])
            Psi = chi_project(ellipsoid, m, states)
            g, dg, G = ellipsoid.jet(t, 1)
            rh = np.sqrt(reeb_factor(m, G + dg, np.sin(phi), g))
            assert np.max(np.abs(Psi[:, 0, 0])) < 1e-12
            assert np.max(np.abs(Psi[:, 1, 0] - rh * m)) < 1e-12

    def test_pole_rejected(self, sphere):
        with pytest.raises(ContactPrimitiveError):
            frame_state(sphere, 1.0, 0.0, 0.3)


class TestLinearizedPath:
    def test_starts_at_identity(self, ellipsoid):
        z0 = frame_state(ellipsoid, 0.8, 1.0, 0.4)
        path = integrate_linearized(ellipsoid, 0.8, z0, 0.5)
        assert np.allclose(path.matrices[0], np.eye(2), atol=1e-12)

    def test_band_period_return(self, ellipsoid):
        # the level family direction is fixed by the one-period return map,
        # so the interval floor sits at an integer and the path is degenerate
        lev = birkhoff_action(ellipsoid, 0.8, 0.45)
        z0 = frame_state(ellipsoid, 0.8,
                         *band_state(ellipsoid, 0.8, 0.45)[:2])
        path = integrate_linearized(ellipsoid, 0.8, z0, lev.reeb_period)
        assert path.det_defect < 1e-6
        res = cz_index(path)
        assert res.degenerate
        assert res.index == 2
        assert res.interval.lo == pytest.approx(1.0, abs=1e-8)
        assert res.interval.length < 0.5

    def test_under_resolved_raises(self, sphere):
        z0 = frame_state(sphere, 0.0, 0.5 * sphere.ell, 0.0)
        path = integrate_linearized(sphere, 0.0, z0, 8.0 * np.pi, n_out=9)
        with pytest.raises(FrameError):
            cz_index(path)

    @staticmethod
    def _scipy_path(p, m, z0, T, n_out=4097):
        # the oracle: scipy's DOP853 with the same tolerances and samples
        tau = np.linspace(0.0, T, n_out)
        sol = solve_ivp(linearized_rhs(p, m), (0.0, T), z0, method="DOP853",
                        t_eval=tau, rtol=1e-12, atol=1e-12)
        assert sol.success
        return SymplecticPath(times=tau, matrices=chi_project(p, m, sol.y),
                              det_defect=0.0, nfev=sol.nfev)

    @pytest.mark.parametrize("case", ["upper", "lower", "band"])
    def test_matches_scipy_dop853(self, ellipsoid, case):
        if case == "band":
            m = 0.8
            T = birkhoff_action(ellipsoid, m, 0.45).reeb_period
            z0 = frame_state(ellipsoid, m,
                             *band_state(ellipsoid, m, 0.45)[:2])
        else:
            lat = find_latitude(ellipsoid, 0.8, case)
            m, T = lat.m_t0, 2.0 * lat.reeb_period
            z0 = frame_state(ellipsoid, m, lat.t0, lat.sign * np.pi / 2.0)
        path = integrate_linearized(ellipsoid, m, z0, T)
        want = self._scipy_path(ellipsoid, m, z0, T)
        assert np.max(np.abs(path.matrices - want.matrices)) <= 1e-11
        got, ref = cz_index(path), cz_index(want)
        assert got.index == ref.index and got.degenerate == ref.degenerate
        assert got.interval.lo == pytest.approx(ref.interval.lo, abs=1e-12)
        assert got.interval.hi == pytest.approx(ref.interval.hi, abs=1e-12)

    def test_nfev_counts_every_call(self, ellipsoid, monkeypatch):
        calls = []

        def counted(p, m):
            rhs = linearized_rhs(p, m)
            return lambda tau, y: calls.append(tau) or rhs(tau, y)
        monkeypatch.setattr(cz, "linearized_rhs", counted)
        z0 = frame_state(ellipsoid, 0.8, 1.0, 0.4)
        path = integrate_linearized(ellipsoid, 0.8, z0, 0.5)
        assert path.nfev == len(calls) > 0

    def test_step_size_collapse_is_a_frame_error(self, sphere, monkeypatch):
        # a right-hand side that turns NaN: every step is rejected until
        # the step size falls below the spacing of floats
        def poisoned(p, m):
            rhs = linearized_rhs(p, m)
            return lambda tau, y: (rhs(tau, y) if tau < 0.25
                                   else (float("nan"),) * 9)
        monkeypatch.setattr(cz, "linearized_rhs", poisoned)
        z0 = frame_state(sphere, 0.5, 1.0, 0.3)
        with pytest.raises(FrameError, match=r"linearized integration "
                           r"failed: dop853: step size below .* rejected "
                           r"steps met a non-finite right-hand side, first "
                           r"component 0 = nan at t = 0\.25") as info:
            integrate_linearized(sphere, 0.5, z0, 1.0)
        assert isinstance(info.value.__cause__, StepSizeError)


class TestResolutionCheck:
    def test_narrow_wedge_step_raises(self):
        # The first step turns lines by more than pi/2 only inside a wedge
        # about 0.27 pi/256 wide, centred between two lines of a pi/256
        # grid. The boost diag(lam, 1/lam) turns lines least at angle
        # atan(lam), by atan(1/lam) - atan(lam); a rotation deepens that to
        # -(pi/2 + eps), and a conjugation moves the wedge off the grid.
        # Fine steps then undo the first one and end on a milder boost, so
        # the winding extremes lie far from the wedge as well.
        lam, eps = 4.0, 1e-5
        centre = 108.5 * np.pi / 256
        shift = np.arctan(lam) - centre
        gamma = 0.5 * np.pi + eps - (np.arctan(lam) - np.arctan(1.0 / lam))
        R = lambda a: _rotation_stack(np.array([a]))[0]
        D = lambda x: np.diag([x, 1.0 / x])
        s = np.linspace(0.0, 1.0, 101)[1:]
        X = ([np.eye(2), R(-gamma) @ D(lam)]
             + [R(-gamma * (1.0 - a)) @ D(lam) for a in s]
             + [D(lam ** (1.0 - a)) for a in s]
             + [D(2.0 ** a) for a in s])
        Psi = R(-shift) @ np.array(X) @ R(shift)
        step = Psi[1]
        grid = np.pi * np.arange(256) / 256
        assert np.max(np.abs(_turn(step, grid))) < 0.5 * np.pi
        assert _turn(step, np.array([centre]))[0] == pytest.approx(
            -(0.5 * np.pi + eps), abs=1e-12)
        with pytest.raises(FrameError):
            winding_interval(_synthetic(Psi))

    def test_path_must_start_at_identity(self):
        tau = np.linspace(0.3, 1.0, 101)
        with pytest.raises(ValueError):
            winding_interval(_synthetic(_rotation_stack(tau)))


class TestFiberOrbit:
    def test_double_cover(self, sphere):
        rep = cz_fiber(sphere, covers=2)
        assert rep.result.index == 3
        assert rep.result.degenerate
        assert rep.contractible
        assert rep.result.interval.lo == pytest.approx(2.0, abs=1e-6)
        assert rep.result.interval.hi == pytest.approx(2.0, abs=1e-6)
        assert rep.predicted_turns == pytest.approx(2.0)

    def test_single_cover(self, sphere):
        rep = cz_fiber(sphere, covers=1)
        assert rep.result.index == 1
        assert rep.result.degenerate
        assert not rep.contractible
        assert rep.result.interval.lo == pytest.approx(1.0, abs=1e-6)


class TestLatitudeOrbit:
    def test_sphere_double_isochronous(self, sphere):
        rep = latitude_cz(sphere, 0.05, covers=2)
        assert rep.result.index == 3
        assert rep.result.degenerate
        assert rep.contractible
        assert rep.result.interval.lo == pytest.approx(2.0, abs=1e-8)
        assert rep.result.interval.hi == pytest.approx(2.0, abs=1e-8)
        # closed-form turn rate: sqrt(K_m) gamma / m = 1 on the sphere
        assert rep.predicted_turns == pytest.approx(2.0, rel=1e-12)
        assert rep.det_defect < 1e-6

    def test_ellipsoid_double_elliptic(self, ellipsoid):
        rep = latitude_cz(ellipsoid, 0.5, covers=2)
        assert rep.result.index == 3
        assert not rep.result.degenerate
        iv = rep.result.interval
        assert 0.0 < iv.length < 0.5
        assert iv.lo < rep.predicted_turns < iv.hi

    def test_single_cover_flagged(self, ellipsoid):
        rep = latitude_cz(ellipsoid, 0.5, covers=1)
        assert not rep.contractible


class TestDeviation:
    def test_latitude_small_m_rate(self, sphere):
        # the deviation of the latitude path matches m^2 / (1 + m^2)
        for m in (0.05, 0.1):
            dev = latitude_deviation(sphere, m)
            assert dev == pytest.approx(m * m / (1.0 + m * m), rel=1e-3)

    def test_monotone_in_m(self, sphere):
        assert latitude_deviation(sphere, 0.1) > latitude_deviation(sphere,
                                                                    0.05)

    @pytest.mark.parametrize("m", [0.02, 0.16, 0.5, 2.0])
    def test_criterion_10_law(self, sphere, m):
        # the law behind criterion 10's slope (docs/decisions.md, entry
        # 1): D(m) = m^2 / (1 + m^2), up to path_deviation's central
        # differences, which on Psi = exp(tau A) read A + dtau^2 A^3 / 6 +
        # O(dtau^4), with |A^3| <= |A|^3 = 1
        dtau = (find_latitude(sphere, m, "upper").reeb_period
                / (cz.DEVIATION_SAMPLES - 1))
        law = m * m / (1.0 + m * m)
        assert abs(latitude_deviation(sphere, m) - law) <= dtau**2 / 6 * 1.01


class TestConvexityReport:
    def test_sphere_small_m(self, sphere):
        rep = dynamical_convexity_report(sphere, 0.05, n_levels=9,
                                         rho_orbits=2)
        assert rep.verdict
        assert rep.lhs < 0.6
        assert rep.rhs > 0.9
        # all candidate periods tie at 4 pi sqrt(1 + m^2) on the sphere
        assert rep.T0_estimate == pytest.approx(
            4.0 * np.pi * np.sqrt(1.0 + 0.05 ** 2), rel=1e-6)
        assert len(rep.candidates) > 2

    def test_report_serialization(self, sphere):
        rep = dynamical_convexity_report(sphere, 0.05, n_levels=5,
                                         rho_orbits=1)
        d = asdict(rep)
        for key in ("m", "T0_estimate", "rho_sup_empirical", "lhs", "rhs",
                    "verdict", "candidates"):
            assert key in d
        lines = rep.lines()
        assert len(lines) == 4
        assert "holds" in lines[-1]


class TestScalarReads:
    @pytest.mark.parametrize("spec, m", [
        ("sphere", 0.8), ("ellipsoid:1.3", 0.8),
        ("spindle:0.07:0.2", 0.04),   # contact certified for m < 0.0503
    ])
    def test_no_scalar_jet_in_the_flows(self, spec, m, monkeypatch):
        # the flows, the linearized flow and the turning points read the
        # profile pointwise through point_jet alone, and the K_m gate reads
        # it with arrays
        p = parse_profile_spec(spec)
        jet, scalar = p.jet, []

        def counted(t, order=1):
            if np.ndim(t) == 0:
                scalar.append((t, order))
            return jet(t, order)
        monkeypatch.setattr(p, "jet", counted)
        I = float(regular_levels(p, m, 5)[1])
        turning_points(p, m, I)
        level_average_ode(p, m, I)
        state = band_state(p, m, I)
        integrate(p, m, state, 5.0, n_out=11)
        integrate_linearized(p, m, frame_state(p, m, *state[:2]), 1.0,
                             n_out=65)
        assert scalar == []
