"""Conley-Zehnder data for the linearized Reeb flow.

For contact strengths the magnetic field divided by

    h(t, phi) = m^2 + 1 - m beta_theta sin(phi) / gamma

is a Reeb field. Its linearization is integrated on the transverse contact
plane in the symplectic trivialization built from the modified horizontal
and generator fields

    H~ = H + beta(j v) V,    X~ = X + (beta(v) - m) V,

projected through chi(Y) = sqrt(h) (eta(Y), alpha(Y)), where alpha and eta
are the two rotating coframe entries. The columns chi(Y_1), chi(Y_2) of
solutions with Y_1(0) = H~/sqrt(h), Y_2(0) = X~/sqrt(h) form a path Psi of
determinant-one matrices starting at the identity. The 9-dim system is
integrated by numerics.dop853 on Python floats, with scipy's error weights
on every component.

The index of a closed orbit is read from the winding interval of Psi: the
rotation number of the direction Psi(tau) u over the orbit, minimized and
maximized over lines u, both in closed form from Psi(T) and one winding
summed over the samples. The interval is shorter than 1/2, so either it
contains an integer k (index 2k) or it lies inside (k, k + 1) (index
2k + 1); an integer endpoint marks a degenerate return map, resolved by
nudging that endpoint just below the integer before applying the rule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .profiles import ProfileFunction
from .contact import ContactPrimitiveError, reeb_factor
from .numerics import StepSizeError, dop853
from .reduced import LatitudeOrbit, find_latitude, rational_closures, \
    minimal_contractible_closure
from .flow import band_state

DEGENERACY_TOL = 1e-6
SYMPLECTIC_TOL = 1e-5
LINEARIZED_RTOL = 1e-12       # tolerances of integrate_linearized
LINEARIZED_ATOL = 1e-12
PATH_SAMPLES = 4097           # samples of Psi over one closed-orbit run
DEVIATION_SAMPLES = 8193      # samples of latitude_deviation's run
_J = np.array([[0.0, -1.0], [1.0, 0.0]])


class FrameError(RuntimeError):
    """Linearized run lost symplecticity or resolution."""


# -- pointwise frame data --------------------------------------------------------


def _fields(jet, t, phi, m: float):
    g, dg, ddg, G = jet(t)
    if g <= 0.0:
        raise ContactPrimitiveError(f"frame evaluated at a pole: t = {t}")
    bt = G + dg
    sp, cp = math.sin(phi), math.cos(phi)
    h = reeb_factor(m, bt, sp, g)
    if h <= 1e-12:
        raise ContactPrimitiveError(
            f"h = {h:.6g} not positive at (t, phi) = ({t}, {phi})")
    return g, dg, ddg, G, bt, sp, cp, h


def frame_state(p: ProfileFunction, m: float, t0: float,
                phi0: float) -> np.ndarray:
    """Initial 9-vector (base point at theta = 0, Y1, Y2) with chi(Y_i)(0)
    = e_i."""
    g, dg, ddg, G, bt, sp, cp, h = _fields(p.point_jet(), t0, phi0, m)
    rh = np.sqrt(h)
    H = np.array([-sp, (bt - dg) * cp / g, cp / g]) / rh
    X = np.array([cp, (bt - dg) * sp / g - m, sp / g]) / rh
    return np.concatenate([[t0, phi0, 0.0], H, X])


def linearized_rhs(p: ProfileFunction, m: float):
    """Reeb field and its exact linearization on (z, Y1, Y2), in floats."""
    jet = p.point_jet()

    def rhs(tau, y):
        g, dg, ddg, G, bt, sp, cp, h = _fields(jet, y[0], y[1], m)
        gg, hh, msp, mcp = g * g, h * h, m * sp, m * cp
        F0, F1, F2 = mcp, 1.0 - m * dg * sp / g, msp / g
        h_t = -msp * ((g + ddg) * g - bt * dg) / gg   # (g + ddg) = beta_theta'
        h_p = -m * bt * cp / g
        # DR = (dF h - F grad(h)) / h^2 in the columns (t, phi), with dF the
        # Jacobian of F; the theta column of both is zero
        R00, R01 = -F0 * h_t / hh, (-msp * h - F0 * h_p) / hh
        R10 = (-msp * (ddg * g - dg * dg) / gg * h - F1 * h_t) / hh
        R11 = (-m * dg * cp / g * h - F1 * h_p) / hh
        R20 = (-msp * dg / gg * h - F2 * h_t) / hh
        R21 = (mcp / g * h - F2 * h_p) / hh
        y3, y4, y6, y7 = y[3], y[4], y[6], y[7]
        return (F0 / h, F1 / h, F2 / h,
                R00 * y3 + R01 * y4, R10 * y3 + R11 * y4, R20 * y3 + R21 * y4,
                R00 * y6 + R01 * y7, R10 * y6 + R11 * y7, R20 * y6 + R21 * y7)
    return rhs


def chi_project(p: ProfileFunction, m: float, states: np.ndarray) -> np.ndarray:
    """Project stacked states (9, n) to the matrix path Psi of shape (n, 2, 2)."""
    t, phi = states[0], states[1]
    g, dg, G = p.jet(t, 1)
    sp, cp = np.sin(phi), np.cos(phi)
    rh = np.sqrt(reeb_factor(m, G + dg, sp, g))
    Psi = np.empty((states.shape[1], 2, 2))
    for j, Y in enumerate((states[3:6], states[6:9])):
        alpha = Y[0] * cp + Y[2] * g * sp
        eta = -Y[0] * sp + Y[2] * g * cp
        Psi[:, 0, j] = rh * eta
        Psi[:, 1, j] = rh * alpha
    return Psi


# -- symplectic paths ------------------------------------------------------------


@dataclass(frozen=True)
class SymplecticPath:
    """Discretized path Psi(tau) in SL(2), Psi(0) = I, tau in Reeb time."""
    times: np.ndarray
    matrices: np.ndarray          # (n, 2, 2)
    det_defect: float
    nfev: int                     # right-hand side calls of the run


def integrate_linearized(p: ProfileFunction, m: float, z0, T: float,
                         n_out: int = PATH_SAMPLES) -> SymplecticPath:
    """Integrate the 9-dim linearized Reeb system and project to Psi.

    The run is numerics.dop853 with scipy's error weights on every
    component: phi stays bounded on the closed orbits integrated here, and
    theta feeds back into nothing. Raises FrameError when the step size
    collapses, or when max |det Psi - 1| exceeds the symplectic tolerance;
    either indicates integrator failure rather than geometry.
    """
    tau = np.linspace(0.0, T, n_out)
    try:
        run = dop853(linearized_rhs(p, m), 0.0, z0, T, tau,
                     rtol=LINEARIZED_RTOL, atol=LINEARIZED_ATOL)
    except StepSizeError as exc:
        raise FrameError(f"linearized integration failed: {exc}") from exc
    Psi = chi_project(p, m, run.y.T)
    det = Psi[:, 0, 0] * Psi[:, 1, 1] - Psi[:, 0, 1] * Psi[:, 1, 0]
    defect = float(np.max(np.abs(det - 1.0)))
    if defect > SYMPLECTIC_TOL:
        raise FrameError(f"symplecticity defect {defect:.3g} exceeds "
                         f"{SYMPLECTIC_TOL}")
    return SymplecticPath(times=tau, matrices=Psi, det_defect=defect,
                          nfev=run.nfev)


# -- winding ---------------------------------------------------------------------


def _wrap(x):
    return (x + np.pi) % (2.0 * np.pi) - np.pi


@dataclass(frozen=True)
class WindingInterval:
    lo: float
    hi: float
    u_lo: float            # direction angles attaining the extremes
    u_hi: float

    @property
    def length(self) -> float:
        return self.hi - self.lo


def winding_interval(path: SymplecticPath) -> WindingInterval:
    """Winding interval over all lines, in closed form from Psi(T).

    Every step must turn every direction by less than pi/2, which holds
    exactly when the symmetric part of Psi_k^T Psi_{k+1} is positive
    definite; otherwise the path is under-resolved. The winding of the
    first column is summed over the samples, and with M = Psi(T) and
    Delta(u) = arg(M u) - u the winding of any other line u is that sum
    plus wrap(Delta(u) - Delta(0)) / 2 pi. Delta is extremal where
    |M u|^2 = det M (docs/decisions.md, entry 7).
    """
    Psi = path.matrices
    if np.max(np.abs(Psi[0] - np.eye(2))) > 1e-9:
        raise ValueError("winding interval needs a path with Psi(0) = I")
    A = np.swapaxes(Psi[:-1], 1, 2) @ Psi[1:]
    sym = 0.5 * (A[:, 0, 1] + A[:, 1, 0])
    if np.any((A[:, 0, 0] <= 0.0) | (A[:, 0, 0] * A[:, 1, 1] <= sym * sym)):
        raise FrameError("direction rotation under-resolved; raise n_out")
    w0 = np.sum(_wrap(np.diff(np.arctan2(Psi[:, 1, 0], Psi[:, 0, 0]))))
    M = Psi[-1]
    S = M.T @ M
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    a, b = 0.5 * (S[0, 0] - S[1, 1]), S[0, 1]
    r = np.hypot(a, b)
    # |M u|^2 = (tr S)/2 + r cos(2u - phi) crosses det M at 2u = phi -+ c
    c = np.arccos(np.clip((det - 0.5 * np.trace(S)) / r, -1.0, 1.0)) \
        if r > 0.0 else 0.0
    phi = np.arctan2(b, a)
    delta0 = np.arctan2(M[1, 0], M[0, 0])

    def winding(u):
        x, y = M @ (np.cos(u), np.sin(u))
        return float((w0 + _wrap(np.arctan2(y, x) - u - delta0))
                     / (2.0 * np.pi))

    u_lo, u_hi = (0.5 * (phi + c)) % np.pi, (0.5 * (phi - c)) % np.pi
    w_lo, w_hi = winding(u_lo), winding(u_hi)
    if w_hi < w_lo:
        # M near a rotation: Delta is flat and roundoff picks the order
        (w_lo, u_lo), (w_hi, u_hi) = (w_hi, u_hi), (w_lo, u_lo)
    if w_hi - w_lo >= 0.5 + 1e-4:
        raise FrameError(f"winding interval [{w_lo}, {w_hi}] too long; "
                         f"path not a single-period symplectic loop")
    return WindingInterval(w_lo, w_hi, float(u_lo), float(u_hi))


def index_from_interval(lo: float, hi: float) -> tuple:
    """(index, degenerate) from a winding interval of length < 1/2.

    Integer endpoints within DEGENERACY_TOL flag degeneracy and are nudged
    just below the integer, implementing the lower-limit convention for
    degenerate return maps.
    """
    degenerate = False
    out = []
    for x in (lo, hi):
        r = round(x)
        if abs(x - r) <= DEGENERACY_TOL:
            degenerate = True
            x = r - DEGENERACY_TOL
        out.append(x)
    lo2, hi2 = out
    k = int(np.floor(hi2))
    if k > lo2:
        return 2 * k, degenerate
    return 2 * k + 1, degenerate


@dataclass(frozen=True)
class CZResult:
    index: int
    degenerate: bool
    interval: WindingInterval


def cz_index(path: SymplecticPath) -> CZResult:
    iv = winding_interval(path)
    idx, deg = index_from_interval(iv.lo, iv.hi)
    return CZResult(index=idx, degenerate=deg, interval=iv)


# -- closed-orbit drivers --------------------------------------------------------


def _latitude_path(p: ProfileFunction, lat: LatitudeOrbit, T: float,
                   n_out: int) -> SymplecticPath:
    """Linearized run along the latitude circle at its own strength m_t0."""
    z0 = frame_state(p, lat.m_t0, lat.t0, lat.sign * np.pi / 2.0)
    return integrate_linearized(p, lat.m_t0, z0, T, n_out=n_out)


@dataclass(frozen=True)
class OrbitIndexReport:
    descriptor: str
    covers: int
    reeb_period: float
    result: CZResult
    det_defect: float
    predicted_turns: float

    @property
    def contractible(self) -> bool:
        """Only even covers of a simple loop (latitude, fiber) contract."""
        return self.covers % 2 == 0


def _report(descriptor: str, path: SymplecticPath, covers: int, T: float,
            turns: float) -> OrbitIndexReport:
    """The index report of the closed orbit whose linearized run is path."""
    return OrbitIndexReport(descriptor=descriptor, covers=covers,
                            reeb_period=T, result=cz_index(path),
                            det_defect=path.det_defect,
                            predicted_turns=float(turns))


def latitude_cz(p: ProfileFunction, m: float, covers: int = 2,
                side: str = "upper") -> OrbitIndexReport:
    """Index data for a latitude orbit traversed covers times.

    Latitude circles are simple loops, so only even covers give
    contractible orbits; odd covers are still computed but flagged. The
    transverse rotation admits the closed form sqrt(K_m) gamma / m turns
    per cover, reported as predicted_turns.
    """
    lat = find_latitude(p, m, side)
    T = covers * lat.reeb_period
    turns = covers * np.sqrt(lat.curvature_m) * lat.gamma_t0 / lat.m_t0
    return _report(f"latitude t0={lat.t0:.6g} x{covers}",
                   _latitude_path(p, lat, T, PATH_SAMPLES), covers, T, turns)


def cz_fiber(p: ProfileFunction, covers: int = 2) -> OrbitIndexReport:
    """Index data for the m = 0 fiber rotation over the point t0 = ell / 2.

    At m = 0 the generator is the pure fiber rotation with h = 1, every
    fiber is a closed Reeb orbit of period 2 pi, and the linearization is
    the identity on the base, so Psi is a rigid rotation: the winding
    interval collapses to [covers, covers].
    """
    t0 = 0.5 * p.ell
    T = covers * 2.0 * np.pi
    path = integrate_linearized(p, 0.0, frame_state(p, 0.0, t0, 0.0), T)
    return _report(f"fiber t0={t0:.6g} x{covers}", path, covers, T, covers)


# -- deviation from rigid rotation -----------------------------------------------


def path_deviation(path: SymplecticPath) -> float:
    """sup over the path of || Psi' Psi^-1 - J || in spectral norm.

    Psi' is taken by central differences on the stored samples, so the
    result carries an O(dtau^2) bias; with the default sampling this is
    far below the deviations of interest.
    """
    Psi = path.matrices
    dtau = path.times[1] - path.times[0]
    dPsi = (Psi[2:] - Psi[:-2]) / (2.0 * dtau)
    mid = Psi[1:-1]
    det = mid[:, 0, 0] * mid[:, 1, 1] - mid[:, 0, 1] * mid[:, 1, 0]
    inv = np.empty_like(mid)
    inv[:, 0, 0] = mid[:, 1, 1]
    inv[:, 0, 1] = -mid[:, 0, 1]
    inv[:, 1, 0] = -mid[:, 1, 0]
    inv[:, 1, 1] = mid[:, 0, 0]
    inv /= det[:, None, None]
    B = dPsi @ inv
    sv = np.linalg.svd(B - _J, compute_uv=False)
    return float(np.max(sv[:, 0]))


def latitude_deviation(p: ProfileFunction, m: float) -> float:
    """Deviation sup along one cover of the upper latitude orbit at
    strength m."""
    lat = find_latitude(p, m, "upper")
    return path_deviation(_latitude_path(p, lat, lat.reeb_period,
                                         DEVIATION_SAMPLES))


# -- dynamical convexity report --------------------------------------------------


@dataclass(frozen=True)
class ConvexityReport:
    m: float
    T0_estimate: float
    rho_sup_empirical: float
    lhs: float                   # 2 pi / T0_estimate
    rhs: float                   # 1 - rho_sup_empirical
    verdict: bool
    candidates: list

    def lines(self):
        out = [f"T0 estimate (min contractible Reeb period) = "
               f"{self.T0_estimate:.12g}",
               f"rotation deviation sup = {self.rho_sup_empirical:.6g}",
               f"2 pi / T0 = {self.lhs:.6g}  against  1 - deviation = "
               f"{self.rhs:.6g}",
               f"pinching verdict: {'holds' if self.verdict else 'fails'}"]
        return out


def dynamical_convexity_report(p: ProfileFunction, m: float,
                               n_levels: int = 33,
                               rho_orbits: int = 5) -> ConvexityReport:
    """Empirical test of the period-pinching criterion at strength m.

    T0 is the least Reeb period among detected contractible closed orbits:
    latitude double covers plus rational closures of scanned levels,
    doubled when their primitive closure is noncontractible. The rotation
    deviation is the sup of || Psi' Psi^-1 - J || sampled along linearized
    runs over both latitudes and a subset of the closed levels. The
    criterion 2 pi / T0 < 1 - deviation certifies that every contractible
    closed orbit has its transverse rotation controlled by the shortest
    period, the dynamical convexity mechanism.
    """
    candidates = []
    rho_paths = []
    for side in ("upper", "lower"):
        lat = find_latitude(p, m, side)
        candidates.append({"kind": f"latitude-{side}", "covers": 2,
                           "T": 2.0 * lat.reeb_period})
        rho_paths.append(_latitude_path(p, lat, lat.reeb_period, PATH_SAMPLES))
    closures = rational_closures(p, m, n_levels=n_levels)
    closures.sort(key=lambda lc: lc[1].q * lc[0].reeb_period)
    for level, info in closures:
        full = minimal_contractible_closure(info)
        candidates.append({"kind": f"level I={level.I:.6g} "
                                   f"({info.p}/{info.q})",
                           "covers": full.q,
                           "T": full.q * level.reeb_period})
    for level, info in closures[:rho_orbits]:
        z0 = frame_state(p, m, *band_state(p, m, level.I)[:2])
        rho_paths.append(integrate_linearized(p, m, z0, level.reeb_period))
    T0 = min(c["T"] for c in candidates)
    rho = max(path_deviation(path) for path in rho_paths)
    lhs = 2.0 * np.pi / T0
    rhs = 1.0 - rho
    return ConvexityReport(m=m, T0_estimate=T0, rho_sup_empirical=rho,
                           lhs=lhs, rhs=rhs, verdict=bool(lhs < rhs),
                           candidates=candidates)
