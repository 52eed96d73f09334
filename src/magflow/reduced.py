"""Reduced dynamics of rotationally invariant magnetic flows.

With the rotational symmetry quotiented out, unit-speed magnetic
trajectories for strength m on the surface with profile gamma are governed
by the conserved quantity

    I_hat(t, phi) = m gamma(t) sin(phi) - Gamma(t),

whose level sets in the (t, phi) cylinder are the reduced orbits. A
regular level I oscillates in a meridian band [t_minus, t_plus] whose ends
lie on the envelope curves I_hat_plus = m gamma - Gamma (phi = pi/2) and
I_hat_minus = -m gamma - Gamma (phi = -pi/2). Between consecutive turning
points

    W(t) = (I_hat_plus - I)(I - I_hat_minus) = m^2 gamma^2 - (I + Gamma)^2

is positive and the reduced motion satisfies ds = gamma dt / sqrt(W),
d theta = (I + Gamma) dt / (gamma sqrt(W)). When the magnetic curvature
K_m = m^2 K + 1 is positive the band of every regular level is a single
interval; this module refuses to classify levels otherwise.

All band integrals are computed after the substitution
t = t_minus + (t_plus - t_minus) sin^2(u), which absorbs both inverse
square-root endpoint singularities: the ratio V = W / ((t - t_minus)
(t_plus - t)) extends smoothly and positively to the closed band, so
Gauss-Legendre quadrature in u converges spectrally. The Birkhoff action
of a level is the time average over one reduced period of

    h(t) = m^2 + 1 - beta_theta (I + Gamma) / gamma^2,

the factor relating the magnetic field to the Reeb field of the rescaled
contact form; on the round sphere beta_theta vanishes and the action is
identically m^2 + 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .numerics import gauss_nodes, grid_sup, grid_roots, bisect_root
from .profiles import ProfileFunction
from . import contact

LATITUDE_BAND = 1e-6          # exclusion band around the pole values +-1


class LevelRangeError(ValueError):
    """Level I outside the open range of regular values."""


class KmNotPositiveError(ValueError):
    """Band classification requested where K_m is not positive."""


# -- invariant and envelopes ----------------------------------------------------


def I_hat(p: ProfileFunction, m: float, t, phi):
    g, G = p.jet(t, 0)
    return m * g * np.sin(phi) - G


def I_hat_plus(p: ProfileFunction, m: float, t):
    g, G = p.jet(t, 0)
    return m * g - G


def I_hat_minus(p: ProfileFunction, m: float, t):
    g, G = p.jet(t, 0)
    return -m * g - G


@dataclass(frozen=True)
class IRange:
    I_min: float
    I_max: float
    argmin_t: float       # where the lower envelope attains its minimum
    argmax_t: float

    def to_dict(self):
        return {"I_min": self.I_min, "I_max": self.I_max,
                "argmin_t": self.argmin_t, "argmax_t": self.argmax_t}


def I_range(p: ProfileFunction, m: float) -> IRange:
    """Range of the invariant over the unit bundle.

    The maximum of the upper envelope exceeds +1 and the minimum of the
    lower envelope is below -1 because both envelopes attain +-1 at the
    poles with nonzero slope there.
    """
    t_hi, I_max = grid_sup(lambda t: I_hat_plus(p, m, t), 0.0, p.ell,
                           endpoint_values=(1.0, -1.0))
    t_lo, neg = grid_sup(lambda t: -I_hat_minus(p, m, t), 0.0, p.ell,
                         endpoint_values=(-1.0, 1.0))
    I_min = -neg
    if not (I_max > 1.0 and I_min < -1.0):
        raise LevelRangeError(
            f"degenerate invariant range [{I_min}, {I_max}] at m = {m}")
    return IRange(I_min=float(I_min), I_max=float(I_max),
                  argmin_t=float(t_lo), argmax_t=float(t_hi))


# -- turning latitudes ----------------------------------------------------------


@dataclass(frozen=True)
class TurningPoints:
    t_minus: float
    t_plus: float
    branch_minus: str      # "upper" or "lower": which envelope is touched
    branch_plus: str

    @property
    def width(self) -> float:
        return self.t_plus - self.t_minus


def _W(p: ProfileFunction, m: float, I: float, t):
    g, G = p.jet(t, 0)
    mg, u = m * g, G + I
    return mg * mg - u * u


def turning_points(p: ProfileFunction, m: float, I: float,
                   xtol: float = 1e-12) -> TurningPoints:
    """Boundary of the positivity band of W for a regular level I.

    Branch labels record which envelope the level touches: I > 1 touches
    the upper envelope at both ends, I < -1 the lower one, and levels in
    (-1, 1) touch one of each.
    """
    if not contact.km_positive(p, m):
        raise KmNotPositiveError(
            f"K_m changes sign at m = {m}; band structure not certified "
            f"(positive for m < {contact.km_positive_threshold(p):.6g})")
    rng = I_range(p, m)
    if not (rng.I_min < I < rng.I_max):
        raise LevelRangeError(
            f"I = {I} outside open range ({rng.I_min:.12g}, {rng.I_max:.12g})")
    if abs(I - 1.0) < LATITUDE_BAND or abs(I + 1.0) < LATITUDE_BAND:
        raise LevelRangeError(
            f"I = {I} within {LATITUDE_BAND} of a pole value +-1")

    L = p.ell
    f = lambda t: _W(p, m, I, t)
    # walk a dense grid out from the interior maximum of W
    n = 4096
    ts = np.linspace(0.0, L, n + 1)
    vals = f(ts)
    k = int(np.argmax(vals))
    if vals[k] <= 0.0:
        raise LevelRangeError(f"W nowhere positive on the grid for I = {I}")
    lo = k
    while lo > 0 and vals[lo - 1] > 0.0:
        lo -= 1
    hi = k
    while hi < n and vals[hi + 1] > 0.0:
        hi += 1
    # W < 0 at both poles for regular I (it equals -(I -+ 1)^2 there)
    if lo == 0 or hi == n:
        raise LevelRangeError(f"band reaches a pole for I = {I}; "
                              f"grid resolution insufficient")
    t_minus = bisect_root(f, ts[lo - 1], ts[lo], tol=xtol)
    t_plus = bisect_root(f, ts[hi], ts[hi + 1], tol=xtol)

    def branch(t):
        # at a turning point m gamma = |I + Gamma|; the sign picks the envelope
        return "upper" if (I + float(p.Gamma(t))) > 0.0 else "lower"

    return TurningPoints(t_minus=float(t_minus), t_plus=float(t_plus),
                         branch_minus=branch(t_minus),
                         branch_plus=branch(t_plus))


# -- band quadrature ------------------------------------------------------------


def _band_integrals(p: ProfileFunction, m: float, I: float,
                    tp: TurningPoints, n_nodes: int):
    """Gauss-Chebyshev values of (s_half, theta_half, integral of h ds).

    With V = W / ((t - t_minus)(t_plus - t)) smooth and positive on the
    closed band, each integral is F / sqrt(V) against the Chebyshev weight
    1 / sqrt((t - t_minus)(t_plus - t)), which the rule integrates exactly
    with uniform weight pi / n. Node clustering is quadratic, gentle
    enough that W never collapses into roundoff at the band ends.
    """
    a, b = tp.t_minus, tp.t_plus
    k = np.arange(1, n_nodes + 1)
    t = 0.5 * (a + b) + 0.5 * (b - a) * np.cos((2 * k - 1) * np.pi
                                               / (2 * n_nodes))
    g, dg, G = p.jet(t, 1)
    W = (m * g) ** 2 - (I + G) ** 2
    V = W / ((t - a) * (b - t))
    if np.any(V <= 0.0):
        raise LevelRangeError(f"band integrand lost positivity for I = {I}")
    common = (np.pi / n_nodes) / np.sqrt(V)
    s_half = float(np.sum(common * g))
    theta_half = float(np.sum(common * (I + G) / g))
    # on the level, m sin(phi) = (I + Gamma) / gamma
    h = contact.reeb_factor(m, G + dg, (I + G) / (m * g), g)
    h_ds = float(np.sum(common * g * h))
    return s_half, theta_half, h_ds


@dataclass(frozen=True)
class ReducedLevel:
    """One level of the invariant with its band quadratures.

    action is the time average of h over a reduced period; theta_half the
    theta advance per half period. Latitude limits are encoded with
    t_minus == t_plus == t0 and the limiting half period pi / sqrt(K_m).
    """
    m: float
    I: float
    t_minus: float
    t_plus: float
    s_half: float
    theta_half: float
    action: float

    @property
    def period(self) -> float:
        return 2.0 * self.s_half

    @property
    def reeb_period(self) -> float:
        """Reeb time elapsed over one reduced period."""
        return self.action * self.period

    @property
    def winding(self) -> float:
        """theta advance per reduced period divided by 2 pi."""
        return self.theta_half / np.pi

    def csv_row(self) -> str:
        cols = (self.I, self.t_minus, self.t_plus, self.s_half, self.action)
        return ",".join("%.12g" % c for c in cols)


def birkhoff_action(p: ProfileFunction, m: float, I: float,
                    n_nodes: int = 64, rtol: float = 1e-10) -> ReducedLevel:
    """Quadrature of one level, doubling nodes until self-consistent."""
    tp = turning_points(p, m, I)
    prev = None
    cur = None
    for n in (n_nodes, 2 * n_nodes, 4 * n_nodes, 8 * n_nodes):
        cur = _band_integrals(p, m, I, tp, n)
        if prev is not None:
            ok_s = abs(cur[0] - prev[0]) <= rtol * max(abs(cur[0]), 1e-30)
            ok_h = abs(cur[2] - prev[2]) <= rtol * max(abs(cur[2]), 1e-30)
            if ok_s and ok_h:
                break
        prev = cur
    s_half, theta_half, h_ds = cur
    return ReducedLevel(m=m, I=I, t_minus=tp.t_minus, t_plus=tp.t_plus,
                        s_half=s_half, theta_half=theta_half,
                        action=h_ds / s_half)


# -- latitudes ------------------------------------------------------------------


@dataclass(frozen=True)
class LatitudeOrbit:
    """Latitude circle t = t0 traversed at phi = sign * pi/2.

    m_t0 = gamma / |gamma'| is the unique strength for which the circle is
    an orbit and I_value its invariant level; the identity I_value =
    gamma'(t0) * action ties the three scalars together. curvature_m =
    K_{m_t0}(t0) controls the transverse oscillation: band half periods of
    nearby levels tend to pi / sqrt(curvature_m).
    """
    t0: float
    sign: int
    m_t0: float
    action: float
    I_value: float
    curvature_m: float
    gamma_t0: float

    @property
    def s_half_limit(self) -> float:
        return float(np.pi / np.sqrt(self.curvature_m))

    @property
    def s_period(self) -> float:
        """Geometric period of the circle under the flow."""
        return 2.0 * np.pi * self.gamma_t0 / self.m_t0

    @property
    def reeb_period(self) -> float:
        """h is constant on the circle and equal to the action."""
        return self.action * self.s_period

    def to_dict(self):
        return {"t0": self.t0, "sign": self.sign, "m": self.m_t0,
                "action": self.action, "I_value": self.I_value,
                "curvature_m": self.curvature_m,
                "s_half_limit": self.s_half_limit}


def latitude_action(p: ProfileFunction, t0: float) -> LatitudeOrbit:
    """Latitude data at t0 from profile jets alone.

    The circle t = t0 is an orbit for m = gamma/|gamma'| with sin(phi) =
    sign(gamma'), and its normalized action is (gamma^2 - gamma' Gamma) /
    gamma'^2, negative exactly when gamma' Gamma > gamma^2.
    """
    g, dg, G = map(float, p.jet(t0, 1))
    if abs(dg) < 1e-8:
        raise ValueError(f"equator-degenerate latitude at t0 = {t0}: "
                         f"gamma'({t0}) = {dg:.3g}")
    if g <= 0.0:
        raise ValueError(f"t0 = {t0} is not an interior latitude")
    m = g / abs(dg)
    action = (g * g - dg * G) / (dg * dg)
    Km = float(contact.magnetic_curvature(p, m, t0))
    return LatitudeOrbit(t0=float(t0), sign=1 if dg > 0 else -1, m_t0=m,
                         action=action, I_value=dg * action,
                         curvature_m=Km, gamma_t0=g)


def latitudes(p: ProfileFunction, m: float, n: int = 4096) -> list:
    """All latitude orbits at strength m: roots of m gamma' = +- gamma.

    With K_m > 0 there are exactly two, one on each envelope (the upper
    one has gamma' > 0). Sorted by t0.
    """
    L = p.ell
    out = []
    for sgn in (+1, -1):
        def f(t):
            g, dg, _ = p.jet(t, 1)
            return m * dg - sgn * g
        for r in grid_roots(f, 0.0, L, n=n):
            if 1e-9 * L < r < L * (1.0 - 1e-9):
                out.append(latitude_action(p, r))
    out.sort(key=lambda lat: lat.t0)
    return out


def find_latitude(p: ProfileFunction, m: float, side: str) -> LatitudeOrbit:
    """The unique latitude on the requested envelope ("upper" or "lower")."""
    want = 1 if side == "upper" else -1
    cands = [lat for lat in latitudes(p, m) if lat.sign == want]
    if not cands:
        raise LevelRangeError(f"no {side} latitude found at m = {m}")
    if len(cands) > 1:
        raise LevelRangeError(f"multiple {side} latitudes at m = {m}; "
                              f"K_m sign condition likely violated")
    lat = cands[0]
    if abs(lat.m_t0 - m) > 1e-6 * max(1.0, m):
        raise LevelRangeError(f"latitude solve inconsistent: m_t0 = "
                              f"{lat.m_t0} against m = {m}")
    return lat


# -- level scans ----------------------------------------------------------------


def regular_levels(p: ProfileFunction, m: float, n_levels: int,
                   band: float = 1e-3) -> np.ndarray:
    """Uniform interior grid of levels avoiding +-1 and the range ends."""
    rng = I_range(p, m)
    pad = band * (rng.I_max - rng.I_min)
    I = np.linspace(rng.I_min + pad, rng.I_max - pad, n_levels)
    for bad in (-1.0, 1.0):
        close = np.abs(I - bad) < 10 * LATITUDE_BAND
        I[close] = bad + np.where(I[close] >= bad, 10 * LATITUDE_BAND,
                                  -10 * LATITUDE_BAND)
    return I


SCAN_HEADER = "I,t_minus,t_plus,s_half,action"


def _scan_one(args):
    p, m, I = args
    return birkhoff_action(p, m, I)


def action_scan(p: ProfileFunction, m: float, n_levels: int,
                band: float = 1e-3, jobs: int = 1) -> list:
    """Levels sorted by I, bracketed by the two latitude limit rows.

    Latitude rows carry t_minus == t_plus == t0, the limiting half period
    pi / sqrt(K_m) and the latitude action; with n_levels = 0 only those
    two rows are produced.
    """
    rows = []
    for lat in latitudes(p, m):
        theta_half = np.pi * lat.sign * m / (lat.gamma_t0
                                             * np.sqrt(lat.curvature_m))
        rows.append(ReducedLevel(m=m, I=lat.I_value, t_minus=lat.t0,
                                 t_plus=lat.t0, s_half=lat.s_half_limit,
                                 theta_half=float(theta_half),
                                 action=lat.action))
    if n_levels > 0:
        levels = regular_levels(p, m, n_levels, band=band)
        if jobs > 1:
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=jobs) as ex:
                rows.extend(ex.map(_scan_one,
                                   [(p, m, float(I)) for I in levels]))
        else:
            rows.extend(birkhoff_action(p, m, float(I)) for I in levels)
    rows.sort(key=lambda r: r.I)
    return rows


def scan_csv_lines(rows) -> list:
    return [SCAN_HEADER] + [r.csv_row() for r in rows]


# -- closure and contractibility ------------------------------------------------


@dataclass(frozen=True)
class ClosureInfo:
    q: int                 # reduced periods per closure
    p: int                 # signed theta turns over the closure
    contractible: bool
    winding: float

    def to_dict(self):
        return {"q": self.q, "p": self.p,
                "contractible": self.contractible, "winding": self.winding}


def pole_band(I: float) -> int:
    """Branch regime indicator: 1 on the mixed band -1 < I < 1, else 0."""
    return 1 if -1.0 < I < 1.0 else 0


def closure_parity(q: int, p: int, I: float) -> bool:
    """Contractibility of the closed orbit covering q reduced periods.

    Orbits on the mixed band sweep a meridian-like loop each reduced
    period; adding the p theta turns, the free homotopy class is trivial
    iff q * [mixed] + p is even. Simple loops such as latitudes (q = 1 off
    the mixed band would need p odd) come out noncontractible, matching
    the fact that they lift to arcs in the double cover.
    """
    return (q * pole_band(I) + p) % 2 == 0


def orbit_closure(level: ReducedLevel, q_max: int = 64,
                  tol: float = 1e-6) -> ClosureInfo | None:
    """Smallest q <= q_max making q * winding integral to tol."""
    w = level.winding
    for q in range(1, q_max + 1):
        pq = round(q * w)
        if abs(q * w - pq) < tol * q:
            return ClosureInfo(q=q, p=int(pq),
                               contractible=closure_parity(q, int(pq),
                                                           level.I),
                               winding=w)
    return None


def rational_closures(p: ProfileFunction, m: float, n_levels: int = 33,
                      q_max: int = 8, tol: float = 1e-9) -> list:
    """Levels whose winding is a low rational p/q, by scan plus bisection.

    Returns (level, ClosureInfo) pairs with the level re-solved by
    bisection to tol in I and kept only when q * winding lies within
    1e-6 q of p, the tolerance of orbit_closure; consumed by period scans.
    """
    levels = regular_levels(p, m, n_levels)
    data = [birkhoff_action(p, m, float(I)) for I in levels]
    wind = np.array([d.winding for d in data])
    found = {}

    def register(lv, q, pi):
        frac = Fraction(pi, q)
        qq = frac.denominator
        pp = int(frac * qq)
        key = (frac, round(lv.I, 6))
        if key not in found:
            found[key] = (lv, ClosureInfo(
                q=qq, p=pp, contractible=closure_parity(qq, pp, lv.I),
                winding=lv.winding))

    for q in range(1, q_max + 1):
        qw = q * wind
        # exact hits at scan nodes (flat winding needs no bracketing)
        for k in range(len(levels)):
            if abs(qw[k] - round(qw[k])) < 1e-7 * q:
                register(data[k], q, int(round(qw[k])))
        for k in range(len(levels) - 1):
            w0, w1 = qw[k], qw[k + 1]
            lo_i, hi_i = int(np.floor(min(w0, w1))), int(np.ceil(max(w0, w1)))
            for pi in range(lo_i, hi_i + 1):
                if (w0 - pi) * (w1 - pi) >= 0.0:
                    continue
                if any(fr == Fraction(pi, q) for fr, _ in found):
                    continue
                f = lambda I: q * birkhoff_action(p, m, I).winding - pi
                try:
                    I_star = bisect_root(f, float(levels[k]),
                                         float(levels[k + 1]), tol=tol)
                    lv = birkhoff_action(p, m, I_star)
                except (ValueError, LevelRangeError):
                    continue
                # the bracket may straddle the winding jump at I = +-1, onto
                # which bisection converges without closing the orbit
                if abs(q * lv.winding - pi) <= 1e-6 * q:
                    register(lv, q, pi)
    return list(found.values())


def minimal_contractible_closure(level: ReducedLevel,
                                 info: ClosureInfo) -> ClosureInfo:
    """Double the closure when the primitive closed orbit is noncontractible."""
    if info.contractible:
        return info
    return ClosureInfo(q=2 * info.q, p=2 * info.p, contractible=True,
                       winding=info.winding)


# -- summary verdict ------------------------------------------------------------


@dataclass(frozen=True)
class ContactVerdict:
    verdict: str        # certified | witnessed_noncontact | numerically_contact
    m_gamma: float
    h_floor: float      # certified lower bound for h (may be <= 0)
    witness: dict | None

    def to_dict(self):
        return {"verdict": self.verdict, "m_gamma": self.m_gamma,
                "h_floor": self.h_floor, "witness": self.witness}


def contact_verdict(p: ProfileFunction, m: float) -> ContactVerdict:
    """Classify the pair (profile, m).

    certified: the quadratic bound already gives h > 0 everywhere.
    Otherwise look for a witness of failure: a latitude orbit of this m
    with negative action, or a grid point where the fiberwise minimum of h
    is not positive. With neither, the verdict is numerically_contact.
    """
    mg = contact.m_gamma(p)
    floor = contact.reeb_factor(m, mg, 1.0, 1.0)
    if floor > 0.0:
        return ContactVerdict("certified", mg, floor, None)
    witness = None
    try:
        for lat in latitudes(p, m):
            if lat.action < 0.0 and abs(lat.m_t0 - m) < 1e-6 * max(1.0, m):
                witness = lat.to_dict()
                break
    except ValueError:
        pass
    if witness is None:
        eps = 1e-4 * p.ell
        for t0 in np.linspace(eps, p.ell - eps, 2048):
            g, dg, G = map(float, p.jet(t0, 1))
            # fiberwise minimum of h, at sin(phi) = +-1 against sign(m beta)
            h_lo = contact.reeb_factor(abs(m), abs(G + dg), 1.0, g)
            if h_lo <= 0.0:
                witness = {"t0": float(t0), "h_min_at_t0": h_lo}
                break
    if witness is not None:
        return ContactVerdict("witnessed_noncontact", mg, floor, witness)
    return ContactVerdict("numerically_contact", mg, floor, None)
