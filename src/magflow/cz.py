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
determinant-one matrices starting at the identity.

The index of a closed orbit is read from the winding interval of Psi: the
rotation number of the direction Psi(tau) u over the orbit, minimized and
maximized over lines u. The interval is shorter than 1/2, so either it
contains an integer k (index 2k) or it lies inside (k, k + 1) (index
2k + 1); an integer endpoint marks a degenerate return map, resolved by
nudging that endpoint just below the integer before applying the rule.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .numerics import golden_max
from .profiles import ProfileFunction
from .contact import ContactPrimitiveError, reeb_factor
from .reduced import LatitudeOrbit, find_latitude, rational_closures, \
    minimal_contractible_closure
from .flow import band_state

DEGENERACY_TOL = 1e-6
SYMPLECTIC_TOL = 1e-5
_J = np.array([[0.0, -1.0], [1.0, 0.0]])


class FrameError(RuntimeError):
    """Linearized run lost symplecticity or resolution."""


# -- pointwise frame data --------------------------------------------------------


def _fields(p: ProfileFunction, t, phi, m: float):
    g, dg, ddg, G = map(float, p.jet(t, 2))
    if g <= 0.0:
        raise ContactPrimitiveError(f"frame evaluated at a pole: t = {t}")
    bt = G + dg
    sp, cp = np.sin(phi), np.cos(phi)
    h = reeb_factor(m, bt, sp, g)
    if h <= 1e-12:
        raise ContactPrimitiveError(
            f"h = {h:.6g} not positive at (t, phi) = ({t}, {phi})")
    return g, dg, ddg, G, bt, sp, cp, h


def h_value(p: ProfileFunction, m: float, state) -> float:
    """Rescaling factor h at state = (t, phi, theta); must be positive."""
    return _fields(p, float(state[0]), float(state[1]), m)[7]


def coframe_eval(p: ProfileFunction, state, W):
    """Coframe entries (alpha, psi, eta) on the tangent vector W.

    W is in (t, phi, theta) coordinates. alpha pairs with the generator
    direction, eta with the rotated horizontal, psi with the fiber: any
    flow generator F satisfies psi(F) = 1 identically.
    """
    t, phi = float(state[0]), float(state[1])
    g, dg, _ = map(float, p.jet(t, 1))
    sp, cp = np.sin(phi), np.cos(phi)
    W = np.asarray(W, dtype=float)
    alpha = W[0] * cp + W[2] * g * sp
    psi = W[1] + W[2] * dg
    eta = -W[0] * sp + W[2] * g * cp
    return float(alpha), float(psi), float(eta)


def frame_state(p: ProfileFunction, m: float, t0: float, phi0: float,
                theta0: float = 0.0) -> np.ndarray:
    """Initial 9-vector (base point, Y1, Y2) with chi(Y_i)(0) = e_i."""
    g, dg, ddg, G, bt, sp, cp, h = _fields(p, t0, phi0, m)
    rh = np.sqrt(h)
    H = np.array([-sp, (bt - dg) * cp / g, cp / g]) / rh
    X = np.array([cp, (bt - dg) * sp / g - m, sp / g]) / rh
    return np.concatenate([[t0, phi0, theta0], H, X])


def linearized_rhs(p: ProfileFunction, m: float):
    """Reeb field and its exact linearization on (z, Y1, Y2)."""
    def rhs(tau, y):
        t, phi = y[0], y[1]
        g, dg, ddg, G, bt, sp, cp, h = _fields(p, t, phi, m)
        F = np.array([m * cp, 1.0 - m * dg * sp / g, m * sp / g])
        # dF in the (t, phi) variables; theta derivatives vanish
        dF = np.array([
            [0.0, -m * sp],
            [-m * sp * (ddg * g - dg * dg) / (g * g), -m * dg * cp / g],
            [-m * sp * dg / (g * g), m * cp / g]])
        btd = g + ddg                       # d/dt beta_theta
        h_t = -m * sp * (btd * g - bt * dg) / (g * g)
        h_p = -m * bt * cp / g
        # DR = (dF h - F grad(h)) / h^2, columns (t, phi), theta column zero
        DR = np.empty((3, 3))
        DR[:, 0] = (dF[:, 0] * h - F * h_t) / (h * h)
        DR[:, 1] = (dF[:, 1] * h - F * h_p) / (h * h)
        DR[:, 2] = 0.0
        out = np.empty(9)
        out[:3] = F / h
        out[3:6] = DR @ y[3:6]
        out[6:9] = DR @ y[6:9]
        return out
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
    m: float
    descriptor: str
    det_defect: float
    states: np.ndarray | None = None

    def __len__(self):
        return len(self.times)

    @property
    def T(self) -> float:
        return float(self.times[-1])


def integrate_linearized(p: ProfileFunction, m: float, z0, T: float,
                         n_out: int = 4097, rtol: float = 1e-12,
                         atol: float = 1e-12,
                         descriptor: str = "") -> SymplecticPath:
    """Integrate the 9-dim linearized Reeb system and project to Psi.

    Raises FrameError when max |det Psi - 1| exceeds the symplectic
    tolerance, which indicates integrator failure rather than geometry.
    """
    tau = np.linspace(0.0, T, n_out)
    sol = solve_ivp(linearized_rhs(p, m), (0.0, T), np.asarray(z0, float),
                    method="DOP853", t_eval=tau, rtol=rtol, atol=atol)
    if not sol.success:
        raise FrameError(f"linearized integration failed: {sol.message}")
    Psi = chi_project(p, m, sol.y)
    det = Psi[:, 0, 0] * Psi[:, 1, 1] - Psi[:, 0, 1] * Psi[:, 1, 0]
    defect = float(np.max(np.abs(det - 1.0)))
    if defect > SYMPLECTIC_TOL:
        raise FrameError(f"symplecticity defect {defect:.3g} exceeds "
                         f"{SYMPLECTIC_TOL}")
    return SymplecticPath(times=tau, matrices=Psi, m=m,
                          descriptor=descriptor, det_defect=defect,
                          states=sol.y)


# -- winding ---------------------------------------------------------------------


def _windings(path: SymplecticPath, dirs: np.ndarray) -> np.ndarray:
    """Winding (in full turns) of Psi(tau) u for each direction column of u."""
    V = path.matrices @ dirs                  # (n, 2, d)
    ang = np.arctan2(V[:, 1, :], V[:, 0, :])
    steps = np.diff(ang, axis=0)
    steps = (steps + np.pi) % (2.0 * np.pi) - np.pi
    if np.max(np.abs(steps)) >= 0.5 * np.pi:
        raise FrameError("direction rotation under-resolved; raise n_out")
    return np.sum(steps, axis=0) / (2.0 * np.pi)


def _winding_of_angle(path: SymplecticPath, u_angle: float) -> float:
    d = np.array([[np.cos(u_angle)], [np.sin(u_angle)]])
    return float(_windings(path, d)[0])


@dataclass(frozen=True)
class WindingInterval:
    lo: float
    hi: float
    u_lo: float            # direction angles attaining the extremes
    u_hi: float

    @property
    def length(self) -> float:
        return self.hi - self.lo


def winding_interval(path: SymplecticPath,
                     n_dirs: int = 256) -> WindingInterval:
    """Winding interval over all lines, by half-circle grid plus refinement.

    The interval of a determinant-one path over one period has length
    below 1/2; a longer result means the path is under-resolved.
    """
    u = np.pi * np.arange(n_dirs) / n_dirs
    dirs = np.vstack([np.cos(u), np.sin(u)])
    w = _windings(path, dirs)
    du = np.pi / n_dirs
    f = lambda a: _winding_of_angle(path, a)
    k_lo, k_hi = int(np.argmin(w)), int(np.argmax(w))
    u_lo, neg = golden_max(lambda a: -f(a), u[k_lo] - du, u[k_lo] + du,
                           tol=1e-10)
    u_hi, w_hi = golden_max(f, u[k_hi] - du, u[k_hi] + du, tol=1e-10)
    w_lo = min(-neg, float(np.min(w)))
    w_hi = max(w_hi, float(np.max(w)))
    if w_hi - w_lo >= 0.5 + 1e-4:
        raise FrameError(f"winding interval [{w_lo}, {w_hi}] too long; "
                         f"path not a single-period symplectic loop")
    return WindingInterval(lo=w_lo, hi=w_hi, u_lo=u_lo, u_hi=u_hi)


def index_from_interval(lo: float, hi: float,
                        tol: float = DEGENERACY_TOL) -> tuple:
    """(index, degenerate) from a winding interval of length < 1/2.

    Integer endpoints within tol flag degeneracy and are nudged just below
    the integer, implementing the lower-limit convention for degenerate
    return maps.
    """
    degenerate = False
    out = []
    for x in (lo, hi):
        r = round(x)
        if abs(x - r) <= tol:
            degenerate = True
            x = r - tol
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

    def to_dict(self):
        return {"index": self.index, "degenerate": self.degenerate,
                "interval": [self.interval.lo, self.interval.hi]}


def cz_index(path: SymplecticPath, tol: float = DEGENERACY_TOL,
             n_dirs: int = 256) -> CZResult:
    iv = winding_interval(path, n_dirs=n_dirs)
    idx, deg = index_from_interval(iv.lo, iv.hi, tol=tol)
    return CZResult(index=idx, degenerate=deg, interval=iv)


# -- closed-orbit drivers --------------------------------------------------------


@dataclass(frozen=True)
class OrbitIndexReport:
    descriptor: str
    covers: int
    contractible: bool
    reeb_period: float
    result: CZResult
    det_defect: float
    predicted_turns: float | None = None

    def to_dict(self):
        d = {"descriptor": self.descriptor, "covers": self.covers,
             "contractible": self.contractible,
             "reeb_period": self.reeb_period,
             "det_defect": self.det_defect}
        d.update(self.result.to_dict())
        if self.predicted_turns is not None:
            d["predicted_turns"] = self.predicted_turns
        return d


def latitude_cz(p: ProfileFunction, m: float,
                latitude: LatitudeOrbit | None = None, covers: int = 2,
                side: str = "upper", n_out: int = 4097) -> OrbitIndexReport:
    """Index data for a latitude orbit traversed covers times.

    Latitude circles are simple loops, so only even covers give
    contractible orbits; odd covers are still computed but flagged. The
    transverse rotation admits the closed form sqrt(K_m) gamma / m turns
    per cover, reported as predicted_turns.
    """
    lat = latitude if latitude is not None else find_latitude(p, m, side)
    T = covers * lat.reeb_period
    z0 = frame_state(p, lat.m_t0, lat.t0, lat.sign * np.pi / 2.0, 0.0)
    path = integrate_linearized(p, lat.m_t0, z0, T, n_out=n_out,
                                descriptor=f"latitude t0={lat.t0:.6g} "
                                           f"x{covers}")
    res = cz_index(path)
    turns = covers * np.sqrt(lat.curvature_m) * lat.gamma_t0 / lat.m_t0
    return OrbitIndexReport(descriptor=path.descriptor, covers=covers,
                            contractible=(covers % 2 == 0),
                            reeb_period=T, result=res,
                            det_defect=path.det_defect,
                            predicted_turns=float(turns))


def cz_fiber(p: ProfileFunction, covers: int = 2,
             t0: float | None = None, n_out: int = 4097) -> OrbitIndexReport:
    """Index data for the m = 0 fiber rotation over a point.

    At m = 0 the generator is the pure fiber rotation with h = 1, every
    fiber is a closed Reeb orbit of period 2 pi, and the linearization is
    the identity on the base, so Psi is a rigid rotation: the winding
    interval collapses to [covers, covers].
    """
    if t0 is None:
        t0 = 0.5 * p.ell
    T = covers * 2.0 * np.pi
    z0 = frame_state(p, 0.0, float(t0), 0.0, 0.0)
    path = integrate_linearized(p, 0.0, z0, T, n_out=n_out,
                                descriptor=f"fiber t0={t0:.6g} x{covers}")
    res = cz_index(path)
    return OrbitIndexReport(descriptor=path.descriptor, covers=covers,
                            contractible=(covers % 2 == 0),
                            reeb_period=T, result=res,
                            det_defect=path.det_defect,
                            predicted_turns=float(covers))


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


def latitude_deviation(p: ProfileFunction, m: float, side: str = "upper",
                       n_out: int = 8193) -> float:
    """Deviation sup along one cover of the latitude orbit at strength m."""
    lat = find_latitude(p, m, side)
    z0 = frame_state(p, lat.m_t0, lat.t0, lat.sign * np.pi / 2.0, 0.0)
    path = integrate_linearized(p, lat.m_t0, z0, lat.reeb_period,
                                n_out=n_out, descriptor="latitude deviation")
    return path_deviation(path)


# -- dynamical convexity report --------------------------------------------------


@dataclass(frozen=True)
class ConvexityReport:
    m: float
    T0_estimate: float
    rho_sup_empirical: float
    lhs: float                   # 2 pi / T0_estimate
    rhs: float                   # 1 - rho_sup_empirical
    verdict: bool
    candidates: list = field(default_factory=list)

    def to_dict(self):
        return {"m": self.m, "T0_estimate": self.T0_estimate,
                "rho_sup_empirical": self.rho_sup_empirical,
                "lhs": self.lhs, "rhs": self.rhs, "verdict": self.verdict,
                "candidates": self.candidates}

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
        z0 = frame_state(p, lat.m_t0, lat.t0, lat.sign * np.pi / 2.0, 0.0)
        rho_paths.append(integrate_linearized(
            p, lat.m_t0, z0, lat.reeb_period, n_out=4097,
            descriptor=f"latitude-{side}"))
    closures = rational_closures(p, m, n_levels=n_levels)
    closures.sort(key=lambda lc: lc[1].q * lc[0].reeb_period)
    for level, info in closures:
        full = minimal_contractible_closure(level, info)
        candidates.append({"kind": f"level I={level.I:.6g} "
                                   f"({info.p}/{info.q})",
                           "covers": full.q,
                           "T": full.q * level.reeb_period})
    for level, info in closures[:rho_orbits]:
        z0 = frame_state(p, m, *band_state(p, m, level.I))
        rho_paths.append(integrate_linearized(
            p, m, z0, level.reeb_period, n_out=4097,
            descriptor=f"level I={level.I:.6g}"))
    T0 = min(c["T"] for c in candidates)
    rho = max(path_deviation(path) for path in rho_paths)
    lhs = 2.0 * np.pi / T0
    rhs = 1.0 - rho
    return ConvexityReport(m=m, T0_estimate=T0, rho_sup_empirical=rho,
                           lhs=lhs, rhs=rhs, verdict=bool(lhs < rhs),
                           candidates=candidates)
