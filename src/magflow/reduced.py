"""Reduced dynamics of rotationally invariant magnetic flows.

With the rotational symmetry quotiented out, unit-speed magnetic
trajectories for strength m on the surface with profile gamma are governed
by the conserved quantity

    I_hat(t, phi) = m gamma(t) sin(phi) - Gamma(t),

whose level sets in the (t, phi) cylinder are the reduced orbits. A
regular level I oscillates in a meridian band [t_minus, t_plus] whose ends
lie on the envelope curves I+(t) = m gamma - Gamma (phi = pi/2) and
I-(t) = -m gamma - Gamma (phi = -pi/2). Between consecutive turning points

    W(t) = (I+ - I)(I - I-) = m^2 gamma^2 - (I + Gamma)^2

is positive and the reduced motion satisfies ds = gamma dt / sqrt(W),
d theta = (I + Gamma) dt / (gamma sqrt(W)). When the magnetic curvature
K_m = m^2 K + 1 is positive the band of every regular level is a single
interval; this module refuses the range, the latitudes and every level
otherwise.

Under K_m > 0 each envelope has a single critical point, its extremum,
which is the latitude orbit on it; every turning point is the one crossing
of I with a monotone envelope piece. The reduced system at (profile, m)
tabulates both envelopes and their slopes from one jet evaluation, and
holds them with the invariant range and, once asked for, the latitudes; the
profile keeps the one of the last m asked for (derived). The extrema and
the crossings of a level are each bracketed between two table entries and
polished by Newton's method on the profile's point jet.

All band integrals use Gauss-Chebyshev nodes on [t_minus, t_plus], whose
weight 1 / sqrt((t - t_minus)(t_plus - t)) absorbs both inverse
square-root endpoint singularities: the ratio V = W / ((t - t_minus)
(t_plus - t)) extends smoothly and positively to the closed band, so the
rule converges spectrally. The Birkhoff action of a level is the time
average over one reduced period of

    h(t) = m^2 + 1 - beta_theta (I + Gamma) / gamma^2,

the factor relating the magnetic field to the Reeb field of the rescaled
contact form; on the round sphere beta_theta vanishes and the action is
identically m^2 + 1.

The levels of a scan are evaluated together: one binary search per
envelope piece brackets the turning points of every level, and each
doubling stage reads the nodes of all levels still open through one vector
jet per chunk of _BATCH_POINTS level x node points. Newton's polish of
each turning point stays scalar, and every row equals the one-level
quadrature bitwise; birkhoff_action and turning_points are batches of one
level.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .numerics import newton_root
from .profiles import ProfileFunction
from . import contact

LATITUDE_BAND = 1e-6          # exclusion band around the pole values +-1
LEVEL_BAND = 1e-3             # share of the invariant range padded at each end
POLE_GAP = 1e-3               # closure brackets keep this far from +-1
QUAD_NODES = 64               # first Gauss-Chebyshev rule of birkhoff_action
QUAD_RTOL = 1e-10             # its self-consistency under node doubling
_BATCH_POINTS = 1 << 12       # level x node points per quadrature jet call
CLOSURE_TOL = 1e-6            # |q winding - p| per reduced period at closure
_EPS = float(np.finfo(float).eps)   # np.finfo costs microseconds per call


class LevelRangeError(ValueError):
    """Level I outside the open range of regular values."""


class KmNotPositiveError(ValueError):
    """Band classification requested where K_m is not positive."""


# -- invariant and envelopes ----------------------------------------------------


def I_hat(p: ProfileFunction, m: float, t, phi):
    g, G = p.jet(t, 0)
    return m * g * np.sin(phi) - G


@dataclass(frozen=True)
class IRange:
    I_min: float
    I_max: float
    argmin_t: float       # where the lower envelope attains its minimum
    argmax_t: float


ENVELOPE_GRID = 4096          # interior points of the envelope table


@dataclass(frozen=True)
class _Piece:
    """Monotone piece of an envelope, tabulated with its end values."""
    sign: int             # +1: upper envelope, -1: lower envelope
    t: np.ndarray
    I: np.ndarray


class _System:
    """The reduced system at (p, m): the K_m gate, the envelope table, the
    invariant range, the latitudes and the level quadrature.

    Both envelopes I+- = +-m gamma - Gamma and their slopes +-m gamma' -
    gamma are tabulated from one jet, the slopes including their pole
    values +-m and -+m (gamma = 0, gamma' = +-1 there). At a critical point
    +-m gamma' = gamma, so I+-'' = -+(gamma / m) K_m there: under K_m > 0
    every critical point is a strict extremum and each slope changes sign
    exactly once on [0, ell]. That root, polished with slope' = +-m gamma''
    - gamma', is the extremum of the envelope and the latitude on it.
    pieces holds the halves of each envelope, keyed by envelope and by side
    of its extremum. Table entries not strictly inside the extremum's value
    are its roundoff, within about 1e-8 of it, and are left out; every
    piece must then be strictly monotone, or LevelRangeError names it.
    """

    def __init__(self, p: ProfileFunction, m: float):
        if not contact.km_positive(p, m):
            raise KmNotPositiveError(
                f"K_m changes sign at m = {m}; band structure not certified "
                f"(positive for m < {contact.km_positive_threshold(p):.6g})")
        t = np.linspace(0.0, p.ell, ENVELOPE_GRID + 2)
        g, dg, G = p.jet(t[1:-1], 1)
        # |m gamma'| = gamma <= max gamma at the root: the rounding error there
        ftol = 8.0 * _EPS * float(np.max(g))
        self.profile, self.m, self.jet = weakref.ref(p), m, p.point_jet(3)
        full, pieces, ext = p.point_jet(), {}, {}
        for name, sg in (("upper", 1), ("lower", -1)):
            def fdf(s, sg=sg):
                gs, dgs, ddgs, _ = full(s)
                return sg * m * dgs - gs, sg * m * ddgs - dgs

            # the one sign change of the slope, bracketed between the two
            # entries where v > 0 flips and polished by newton_root
            v = np.r_[sg * m, sg * m * dg - g, -sg * m]
            flips = np.flatnonzero(np.diff(v > 0.0))
            if len(flips) != 1:
                raise LevelRangeError(f"{name} envelope slope changes sign "
                                      f"{len(flips)} times on the table; "
                                      f"K_m > 0 allows one")
            j = int(flips[0])
            t_ext = newton_root(fdf, float(t[j]), float(t[j + 1]),
                                float(v[j]), float(v[j + 1]), ftol=ftol)
            g_ext, _, G_ext = self.jet(t_ext)
            I_ext = sg * m * g_ext - G_ext
            ext[name] = t_ext, I_ext
            # both envelopes equal +1 at t = 0 and -1 at t = ell; pieces[name,
            # 0] runs from t = 0 to the extremum, pieces[name, 1] on to t = ell
            vals = np.r_[1.0, sg * m * g - G, -1.0]
            inside = sg * vals < sg * I_ext
            k = int(np.searchsorted(t, t_ext))
            lo, hi = inside[:k], inside[k:]
            pieces[name, 0] = _Piece(sg, np.r_[t[:k][lo], t_ext],
                                     np.r_[vals[:k][lo], I_ext])
            pieces[name, 1] = _Piece(sg, np.r_[t_ext, t[k:][hi]],
                                     np.r_[I_ext, vals[k:][hi]])
            for side in (0, 1):
                step = np.diff(pieces[name, side].I)
                if not ((step > 0.0).all() or (step < 0.0).all()):
                    raise LevelRangeError(f"{name} envelope piece {side} is "
                                          f"not strictly monotone on the "
                                          f"table; K_m > 0 makes it so")
        (t_hi, I_max), (t_lo, I_min) = ext["upper"], ext["lower"]
        if not (I_max > 1.0 and I_min < -1.0):
            raise LevelRangeError(
                f"degenerate invariant range [{I_min}, {I_max}] at m = {m}")
        self.pieces, self.latitudes = pieces, {}
        self.range = IRange(I_min, I_max, argmin_t=t_lo, argmax_t=t_hi)

    def crossings(self, levels, piece: _Piece) -> list:
        """The one t where the monotone envelope piece equals I, for each
        level I of the array levels.

        The piece is strictly monotone (checked at construction), so a
        binary search brackets each level between the two entries where v
        > I flips; the range checks of turning_points keep every level
        inside the piece's values. Newton's method then runs on the
        envelope one level at a time, through the point jet of (gamma,
        gamma', Gamma), whose derivative +-m gamma' - gamma comes from the
        same jet as its value.
        """
        sg, jet, m, t, v = piece.sign, self.jet, self.m, piece.t, piece.I
        if v[-1] > v[0]:
            ks = np.searchsorted(v, levels, side="right") - 1
        else:
            ks = np.searchsorted(-v, -levels, side="left") - 1
        roots = []
        for I, k in zip(levels.tolist(), ks.tolist()):
            def fdf(s, I=I):
                g, dg, G = jet(s)
                return sg * m * g - G - I, sg * m * dg - g

            # |m gamma|, |Gamma| <= 1 + |I| near the root: the rounding error
            ftol = 8.0 * _EPS * (1.0 + abs(I))
            roots.append(newton_root(fdf, float(t[k]), float(t[k + 1]),
                                     float(v[k] - I), float(v[k + 1] - I),
                                     ftol=ftol))
        return roots

    def turning_points(self, I):
        """(t_minus, t_plus) arrays of the regular levels of the array I.

        W is positive exactly between the envelopes, so each turning point
        lies on one monotone envelope piece: t_minus on the rising upper
        piece when I > 1 and on the falling lower piece otherwise, t_plus
        on the rising lower piece when I < -1 and on the falling upper
        piece otherwise. The first level outside the open range, or within
        LATITUDE_BAND of a pole value, raises LevelRangeError.
        """
        lo, hi = self.range.I_min, self.range.I_max
        out = ~((lo < I) & (I < hi))
        if out.any():
            raise LevelRangeError(f"I = {float(I[out][0])} outside open "
                                  f"range ({lo:.12g}, {hi:.12g})")
        # |(|I| - 1)| is |I - 1| or |I + 1| exactly, the nearer one
        near = np.abs(np.abs(I) - 1.0) < LATITUDE_BAND
        if near.any():
            raise LevelRangeError(f"I = {float(I[near][0])} within "
                                  f"{LATITUDE_BAND} of a pole value +-1")
        ends = np.empty((2, len(I)))
        for end, on_upper in enumerate((I > 1.0, I >= -1.0)):
            for branch, sel in (("upper", on_upper), ("lower", ~on_upper)):
                if sel.any():
                    ends[end, sel] = self.crossings(I[sel],
                                                    self.pieces[branch, end])
        return ends

    def band_integrals(self, I, a, b, n_nodes: int):
        """Gauss-Chebyshev (s_half, theta_half, integral of h ds) of the levels
        of the arrays (I, t_minus, t_plus), the rows of a (3, levels) array.

        With V = W / ((t - t_minus)(t_plus - t)) smooth and positive on the
        closed band, each integral is F / sqrt(V) against the Chebyshev
        weight 1 / sqrt((t - t_minus)(t_plus - t)), which the rule
        integrates exactly with uniform weight pi / n. Node clustering is
        quadratic, gentle enough that W never collapses into roundoff at
        the band ends.

        The nodes form one (levels, n_nodes) C-contiguous array, read by
        one vector jet. Every stage is elementwise, and numpy sums a
        contiguous last axis row by row with the pairwise sum of a 1-D
        array, so each row is bitwise the quadrature of its level alone.
        """
        k = np.arange(1, n_nodes + 1)
        I, a, b = I[:, None], a[:, None], b[:, None]
        t = 0.5 * (a + b) + 0.5 * (b - a) * np.cos((2 * k - 1) * np.pi
                                                   / (2 * n_nodes))
        g, dg, G = self.profile().jet(t, 1)
        W = (self.m * g) ** 2 - (I + G) ** 2
        V = W / ((t - a) * (b - t))
        if (V <= 0.0).any():
            lost = (V <= 0.0).any(axis=1)
            raise LevelRangeError(f"band integrand lost positivity for "
                                  f"I = {float(I[lost][0, 0])}")
        common = (np.pi / n_nodes) / np.sqrt(V)
        # on the level, m sin(phi) = (I + Gamma) / gamma
        h = contact.reeb_factor(self.m, G + dg, (I + G) / (self.m * g), g)
        return np.add.reduce([common * g, common * (I + G) / g,
                              common * g * h], axis=2)

    def stage(self, band, n_nodes: int):
        """band_integrals of the levels in the columns (I, t_minus, t_plus)
        of band, at most _BATCH_POINTS level x node points per vector jet."""
        rows = max(1, _BATCH_POINTS // n_nodes)
        parts = [self.band_integrals(*band[:, c:c + rows], n_nodes)
                 for c in range(0, band.shape[1], rows)]
        return np.concatenate(parts, axis=1)

    def levels(self, levels) -> list:
        """Quadratures of the levels, floats, evaluated together.

        Every level starts at QUAD_NODES and doubles its nodes until two
        rules agree to QUAD_RTOL in s_half and in the integral of h ds, or
        until 8 QUAD_NODES; a stage evaluates only the levels still open,
        at most _BATCH_POINTS level x node points per vector jet, so memory
        stays bounded however many levels there are. The rows are those of
        the levels taken one at a time, bitwise (band_integrals).
        """
        I = np.array(levels, dtype=float)
        if not I.size:
            return []
        ends = self.turning_points(I)
        band, done = np.vstack((I, ends)), np.empty((3, len(I)))
        todo, prev = np.arange(len(I)), None
        for n in (QUAD_NODES, 2 * QUAD_NODES, 4 * QUAD_NODES):
            cur = self.stage(band, n)
            if prev is not None:       # s_half and the integral of h ds
                ok = np.logical_and.reduce(
                    np.abs(cur[::2] - prev[::2])
                    <= QUAD_RTOL * np.maximum(np.abs(cur[::2]), 1e-30))
                done[:, todo[ok]] = cur[:, ok]
                todo, band, cur = todo[~ok], band[:, ~ok], cur[:, ~ok]
                if not todo.size:
                    break
            prev = cur
        else:                          # the last rule is taken as it is
            done[:, todo] = self.stage(band, 8 * QUAD_NODES)
        return [ReducedLevel(m=self.m, I=i, t_minus=a, t_plus=b, s_half=s,
                             theta_half=th, action=hs / s)
                for i, a, b, s, th, hs in zip(I.tolist(), *ends.tolist(),
                                              *done.tolist())]


def _system(p: ProfileFunction, m: float) -> _System:
    """The reduced system at (p, m), kept on p for the last m asked for
    (derived); it holds p through a weak reference, so no cycle forms."""
    return p.derived("reduced system", m, lambda: _System(p, m))


def I_range(p: ProfileFunction, m: float) -> IRange:
    """Range of the invariant over the unit bundle.

    The maximum of the upper envelope exceeds +1 and the minimum of the
    lower envelope is below -1 because both envelopes attain +-1 at the
    poles with nonzero slope there. Both are attained at the latitudes.
    It is computed with the envelope table of the reduced system at (p, m).
    """
    return _system(p, m).range


# -- turning points and band quadrature -----------------------------------------


@dataclass(frozen=True)
class TurningPoints:
    t_minus: float
    t_plus: float
    branch_minus: str      # "upper" or "lower": which envelope is touched
    branch_plus: str


def turning_points(p: ProfileFunction, m: float, I: float) -> TurningPoints:
    """Boundary of the positivity band of W for a regular level I, with
    the envelope each end touches (_System.turning_points of one level)."""
    t_minus, t_plus = _system(p, m).turning_points(np.array([I], dtype=float))
    return TurningPoints(
        t_minus=float(t_minus[0]), t_plus=float(t_plus[0]),
        branch_minus="upper" if I > 1.0 else "lower",
        branch_plus="lower" if I < -1.0 else "upper")


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


def birkhoff_action(p: ProfileFunction, m: float, I: float) -> ReducedLevel:
    """Quadrature of one level, doubling nodes from QUAD_NODES until two
    rules agree to QUAD_RTOL (_System.levels of one level)."""
    return _system(p, m).levels([I])[0]


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


def latitude_action(p: ProfileFunction, t0: float) -> LatitudeOrbit:
    """Latitude data at t0 from profile jets alone.

    The circle t = t0 is an orbit for m = gamma/|gamma'| with sin(phi) =
    sign(gamma'), and its normalized action is (gamma^2 - gamma' Gamma) /
    gamma'^2, negative exactly when gamma' Gamma > gamma^2.
    """
    g, dg, G = p.point_jet(3)(float(t0))
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


def latitudes(p: ProfileFunction, m: float) -> list:
    """The two latitude orbits at strength m: roots of m gamma' = +- gamma.

    They are find_latitude's upper and lower latitudes, with its
    consistency check. The upper one (gamma' > 0) comes first, which sorts
    the list by t0: slope_+ + slope_- = -2 gamma < 0, so the lower slope is
    still negative where the upper one vanishes.
    """
    return [find_latitude(p, m, "upper"), find_latitude(p, m, "lower")]


def find_latitude(p: ProfileFunction, m: float, side: str) -> LatitudeOrbit:
    """The latitude on the requested envelope ("upper" or "lower"), kept
    by the reduced system at (p, m) once its m_t0 agrees with m."""
    if side not in ("upper", "lower"):
        raise ValueError(f"side must be 'upper' or 'lower', not {side!r}")
    system = _system(p, m)
    if side not in system.latitudes:
        rng = system.range
        lat = latitude_action(p, rng.argmax_t if side == "upper"
                              else rng.argmin_t)
        if abs(lat.m_t0 - m) > 1e-6 * max(1.0, m):
            raise LevelRangeError(f"latitude solve inconsistent: m_t0 = "
                                  f"{lat.m_t0} against m = {m}")
        system.latitudes[side] = lat
    return system.latitudes[side]


# -- level scans ----------------------------------------------------------------


def regular_levels(p: ProfileFunction, m: float, n_levels: int,
                   band: float = LEVEL_BAND) -> np.ndarray:
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


def action_scan(p: ProfileFunction, m: float, n_levels: int,
                band: float = LEVEL_BAND) -> list:
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
        rows.extend(_system(p, m).levels(regular_levels(p, m, n_levels,
                                                        band=band)))
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


def rational_closures(p: ProfileFunction, m: float, n_levels: int = 33,
                      q_max: int = 8) -> list:
    """Levels whose winding is a low rational p/q, by scan plus secant steps.

    Returns (level, ClosureInfo) pairs: exact hits at the regular levels,
    and the roots of q * winding - p in every bracket of consecutive nodes
    where it changes sign, p/q in lowest terms and neither node an exact
    hit of it (a non-monotone winding crosses a p/q in several brackets).
    newton_root solves each root until q * winding lies within QUAD_RTOL q
    of p (docs/decisions.md, entry 23), and it is kept when within
    CLOSURE_TOL q; consumed by period scans.
    Across I = +-1 the winding jumps by exactly 1, and within about 1e-4
    of a pole the quadrature's winding is wrong, so no bracket spans a
    pole: the nodes are the regular levels at least POLE_GAP from +-1,
    plus the levels at POLE_GAP on either side of each pole that lie
    inside the grid. The regular levels and the gap ends are quadratures
    of one batch, and every level is memoized by I within the call, so
    that the secant's iterates cost one quadrature each.
    """
    system, levels = _system(p, m), regular_levels(p, m, n_levels)
    gap_ends = [pole + side * POLE_GAP for pole in (-1.0, 1.0)
                for side in (-1.0, 1.0)]
    nodes = sorted([I for I in map(float, levels)
                    if abs(abs(I) - 1.0) >= POLE_GAP]
                   + [I for I in gap_ends
                      if np.any(levels < I) and np.any(levels > I)])
    grid = list(dict.fromkeys([*map(float, levels), *nodes]))
    memo = dict(zip(grid, system.levels(grid)))

    def level(I):
        if I not in memo:
            memo[I] = system.levels([I])[0]
        return memo[I]
    brackets = [(a, b) for a, b in zip(nodes, nodes[1:])
                if not a < -1.0 < b and not a < 1.0 < b]
    found = {}

    def register(lv, q, pi):
        frac = Fraction(pi, q)
        qq, pp = frac.denominator, frac.numerator
        key = (frac, round(lv.I, 6))
        if key not in found:
            found[key] = (lv, ClosureInfo(
                q=qq, p=pp, contractible=closure_parity(qq, pp, lv.I),
                winding=lv.winding))

    for q in range(1, q_max + 1):
        # exact hits at scan nodes (flat winding needs no bracketing)
        hits = set()
        for I in map(float, levels):
            lv = level(I)
            qw = q * lv.winding
            if abs(qw - round(qw)) < 1e-7 * q:
                register(lv, q, int(round(qw)))
                hits.add((I, int(round(qw))))
        for a, b in brackets:
            w0, w1 = q * level(a).winding, q * level(b).winding
            lo_i, hi_i = int(np.floor(min(w0, w1))), int(np.ceil(max(w0, w1)))
            for pi in range(lo_i, hi_i + 1):
                # a reducible p/q changes sign at its own q too, and at an
                # exact hit of p/q the sign of q w - p is roundoff
                if ((w0 - pi) * (w1 - pi) >= 0.0 or np.gcd(pi, q) != 1
                        or (a, pi) in hits or (b, pi) in hits):
                    continue
                lv = level(newton_root(
                    lambda I: (q * level(I).winding - pi, None), a, b,
                    w0 - pi, w1 - pi, ftol=QUAD_RTOL * q))
                if abs(q * lv.winding - pi) <= CLOSURE_TOL * q:
                    register(lv, q, pi)
    return list(found.values())


def minimal_contractible_closure(level: ReducedLevel,
                                 info: ClosureInfo) -> ClosureInfo:
    """Double the closure when the primitive closed orbit is noncontractible."""
    if info.contractible:
        return info
    return ClosureInfo(q=2 * info.q, p=2 * info.p, contractible=True,
                       winding=info.winding)
