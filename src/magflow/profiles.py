"""Profile functions for surfaces of revolution diffeomorphic to the sphere.

A surface of revolution is encoded by its profile gamma: [0, ell] -> R, the
distance from the axis as a function of arclength t along a meridian. Smooth
closure at the two poles and the round metric convention used throughout
impose:

  gamma(0) = gamma(ell) = 0,     gamma > 0 on (0, ell),
  gamma'(0) = 1, gamma'(ell) = -1,   |gamma'| < 1 on (0, ell),
  gamma''(0) = gamma''(ell) = 0,

and the normalization area = 4 pi, i.e. integral of gamma over [0, ell]
equals 2. Gamma denotes the antiderivative of gamma with Gamma(0) = -1, so
Gamma(ell) = +1 for a normalized profile. Gauss curvature is
K = -gamma''/gamma, extended to the poles by the limit -gamma'''/gamma'.

Profiles are evaluated through one method, jet(t, order), which returns
(gamma, gamma', ..., gamma^(order), Gamma) from a single evaluation and is
vectorized over numpy arrays; gamma, dgamma, ddgamma, dddgamma, Gamma and
curvature are views of it. point_jet() returns a scalar evaluator of
(gamma, gamma', Gamma) for the flow's right-hand sides, which agrees with
jet to a few ulp. The kinds without a closed form, the ellipsoid and the
collar of a stretched profile, sample their exact jets once at build and
interpolate them with one _ColumnSpline, so no evaluation solves or
inverts anything. Evaluation does not clamp or raise outside
[0, ell]; callers that integrate ODEs may probe a few ulps past the ends and
receive the natural smooth extension of the representation.
"""
from __future__ import annotations

import json
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import make_interp_spline

from .numerics import gauss_nodes

# Below this height the ratio -gamma''/gamma is replaced by its pole limit
# -gamma'''/gamma'; both agree to O(t^2) near a pole but the limit form stays
# conditioned as gamma -> 0.
_POLE_BAND = 1e-3
_TABLE_CELLS = 4096     # cells of the grid a tabulated kind samples on
_VALIDATE_CELLS = 2048  # cells of validate's grid


class ProfileFunction:
    """Base class; subclasses provide jet, gamma_integral and to_dict."""

    kind = "abstract"
    ell: float

    # -- evaluation ---------------------------------------------------------

    def jet(self, t, order: int = 1):
        """(gamma, gamma', ..., d^order gamma / dt^order, Gamma) at t.

        order runs from 0 to 3. Every entry has the shape of t, and all of
        them come from one evaluation at t.
        """
        raise NotImplementedError

    def point_jet(self):
        """A float -> (gamma, gamma', Gamma) callable for one point at a time.

        The flow's right-hand sides call it on Python floats. It agrees with
        jet(t, 1) to a few ulp; any table a subclass builds for it lives as
        long as the callable does. Of the builtin kinds only sampled
        profiles use this wrapper of jet.
        """
        def at(t):
            g, dg, G = self.jet(t, 1)
            return float(g), float(dg), float(G)
        return at

    def gamma(self, t):
        return self.jet(t, 0)[0]

    def dgamma(self, t):
        return self.jet(t, 1)[1]

    def ddgamma(self, t):
        return self.jet(t, 2)[2]

    def dddgamma(self, t):
        return self.jet(t, 3)[3]

    def Gamma(self, t):
        return self.jet(t, 0)[-1]

    def curvature(self, t):
        """Gauss curvature K = -gamma''/gamma, pole limit -gamma'''/gamma'."""
        g, dg, ddg, dddg, _ = self.jet(t, 3)
        with np.errstate(divide="ignore", invalid="ignore"):
            K = np.where(np.abs(g) < _POLE_BAND, -dddg / dg, -ddg / g)
        return K if K.ndim else float(K)

    # -- integrals ----------------------------------------------------------

    def gamma_integral(self) -> float:
        """Integral of gamma over [0, ell] (equals 2 when normalized)."""
        raise NotImplementedError

    def area(self) -> float:
        return 2.0 * np.pi * self.gamma_integral()

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} kind={self.kind!r} ell={self.ell:.6g}>"


class SphereProfile(ProfileFunction):
    """Round sphere of radius a: gamma = a sin(t/a) on [0, pi a].

    Normalized (area 4 pi) iff a = 1. Everything is closed form, so this
    doubles as the exact oracle for the numerically constructed profiles.
    """

    kind = "sphere"

    def __init__(self, radius: float = 1.0):
        if radius <= 0:
            raise ValueError("sphere radius must be positive")
        self.radius = float(radius)
        self.ell = np.pi * self.radius

    def jet(self, t, order: int = 1):
        a = self.radius
        u = np.asarray(t, dtype=float) / a
        sin, cos = np.sin(u), np.cos(u)
        derivs = (a * sin, cos, -sin / a, -cos / a**2)[:order + 1]
        # antiderivative with Gamma(0) = -1
        return (*derivs, -1.0 + a**2 * (1.0 - cos))

    def point_jet(self):
        """jet(t, 1) with math in place of numpy: the same operations in
        the same order, so equal to jet bitwise wherever numpy's scalar sin
        and cos round as the C library's do."""
        a, a2 = self.radius, self.radius**2

        def at(t):
            u = t / a
            cos = math.cos(u)
            return a * math.sin(u), cos, -1.0 + a2 * (1.0 - cos)
        return at

    def gamma_integral(self) -> float:
        return 2.0 * self.radius**2

    def to_dict(self):
        return {"kind": "sphere", "radius": self.radius}


class _ColumnSpline:
    """A vector quintic spline through exact samples of the columns (gamma,
    gamma', gamma'', Gamma), evaluated as a jet whose gamma''' is the
    derivative of the gamma'' column, or as a Taylor table."""

    def __init__(self, t, columns):
        self.sp = make_interp_spline(t, columns, k=5)

    def jet(self, t, order: int):
        v = self.sp(t)
        derivs = [v[..., k] for k in range(min(order, 2) + 1)]
        if order == 3:
            derivs.append(self.sp(t, nu=1)[..., 2])
        return (*derivs, v[..., 3])

    def point_jet(self):
        """Columns (gamma, gamma', Gamma) of the spline as local Taylor
        polynomials about the midpoint of each knot interval, found by
        bisection and summed by Horner's rule.

        The value at each midpoint comes from de Boor's recursion on the
        coefficients less the interval's first one, which are O(h) small,
        so it is rounded once; the derivatives come from the spline. The
        table (about 4096 x 18 doubles, 0.6 MB as an array; a list of
        Python floats would take four times that) is built on each call.
        """
        sp, k, cols = self.sp, self.sp.k, [0, 1, 3]
        x = np.unique(sp.t[k:-k])
        left = np.searchsorted(sp.t, x[:-1], side="right") - 1
        mid = 0.5 * (x[:-1] + x[1:])
        base = sp.c[left - k][:, cols]
        e = [sp.c[left - k + j][:, cols] - base for j in range(k + 1)]
        knot = [sp.t[left + o][:, None] for o in range(-k, k + 1)]
        for r in range(1, k + 1):
            for j in range(k, r - 1, -1):
                w = (mid[:, None] - knot[j]) / (knot[k + 1 + j - r] - knot[j])
                e[j] = e[j - 1] + w * (e[j] - e[j - 1])
        value = base + e[k]
        del e, knot                     # before the table, to bound the peak
        table = np.empty((len(mid), len(cols), k + 1))  # highest power first
        for r in range(1, k + 1):
            table[:, :, k - r] = sp(mid, nu=r)[:, cols] / math.factorial(r)
        table[:, :, k] = value
        coef = array("d")
        coef.frombytes(memoryview(table).cast("B"))
        inner, mid = x[1:-1].tolist(), mid.tolist()

        def at(t):
            i = bisect_right(inner, t)
            (g5, g4, g3, g2, g1, g0, d5, d4, d3, d2, d1, d0,
             G5, G4, G3, G2, G1, G0) = coef[18 * i:18 * i + 18]
            u = t - mid[i]
            return (((((g5 * u + g4) * u + g3) * u + g2) * u + g1) * u + g0,
                    ((((d5 * u + d4) * u + d3) * u + d2) * u + d1) * u + d0,
                    ((((G5 * u + G4) * u + G3) * u + G2) * u + G1) * u + G0)
        return at


class EllipsoidProfile(ProfileFunction):
    """Ellipsoid of revolution x^2 + y^2 + (z/rho)^2 = 1, rescaled to area 4 pi.

    rho < 1 is oblate, rho > 1 prolate. The profile is built by integrating
    the meridian arclength dt/du = sqrt(cos^2 u + rho^2 sin^2 u) over the
    polar angle u in [0, pi] with per-interval Gauss quadrature, then
    rescaling lengths so the area normalization holds. Derivatives in u are
    closed form, so every sampled jet is exact up to the quadrature of t(u);
    a _ColumnSpline interpolates them between samples.
    """

    kind = "ellipsoid"

    def __init__(self, ratio: float):
        if ratio <= 0:
            raise ValueError("ellipsoid axis ratio must be positive")
        self.ratio = float(ratio)
        rho = self.ratio
        u = np.linspace(0.0, np.pi, _TABLE_CELLS + 1)
        x, w = gauss_nodes(10)
        # cumulative t(u) and I(u) = integral gamma_raw dt over each u-cell
        uu = u[:-1, None] + np.diff(u)[:, None] * x[None, :]
        sp = np.sqrt(np.cos(uu) ** 2 + rho**2 * np.sin(uu) ** 2)
        dcell_t = np.diff(u)[:, None] * w[None, :] * sp
        dcell_I = dcell_t * np.sin(uu)
        t_raw = np.concatenate(([0.0], np.cumsum(dcell_t.sum(axis=1))))
        I_raw = np.concatenate(([0.0], np.cumsum(dcell_I.sum(axis=1))))
        # raw jets from the parametrization gamma_raw(u) = sin u
        spu = np.sqrt(np.cos(u) ** 2 + rho**2 * np.sin(u) ** 2)
        g_raw = np.sin(u)
        dg = np.cos(u) / spu
        ddg_raw = -np.sin(u) * (spu**2 + np.cos(u) ** 2 * (rho**2 - 1.0)) / spu**4
        # rescale t -> s*t so that integral gamma = 2
        s = np.sqrt(2.0 / I_raw[-1])
        t = s * t_raw
        t[0], g_raw[0], dg[0], ddg_raw[0] = 0.0, 0.0, 1.0, 0.0
        g_raw[-1], dg[-1], ddg_raw[-1] = 0.0, -1.0, 0.0
        self.ell = float(t[-1])
        Gam = -1.0 + s * s * I_raw
        self._table = _ColumnSpline(
            t, np.column_stack([s * g_raw, dg, ddg_raw / s, Gam]))
        # exact pole curvature of the rescaled profile
        self.pole_curvature = rho**2 / s**2

    def jet(self, t, order: int = 1):
        t = np.asarray(t, dtype=float)
        jet = self._table.jet(t, order)
        if order < 3:
            return jet
        # spline third derivatives drift near the ends; pin the exact limit
        d3 = np.where(t < _POLE_BAND, -self.pole_curvature, jet[3])
        d3 = np.where(t > self.ell - _POLE_BAND, self.pole_curvature, d3)
        return (*jet[:3], d3, jet[4])

    def point_jet(self):
        return self._table.point_jet()

    def gamma_integral(self) -> float:
        return 2.0

    def to_dict(self):
        return {"kind": "ellipsoid", "ratio": self.ratio}


class SplineProfile(ProfileFunction):
    """Profile from samples (t_i, gamma_i) on [0, ell], quintic interpolation.

    End conditions gamma' = +1 / -1 and gamma'' = 0 are imposed on the
    interpolant unless end_conditions overrides them (useful for building
    deliberately invalid profiles in tests). Gamma is the exact
    antiderivative of the spline, and the derivative fields are the exact
    derivatives of the spline, so the sampled representation is internally
    consistent to machine precision.
    """

    kind = "samples"

    def __init__(self, t, gamma, end_conditions=None):
        t = np.asarray(t, dtype=float)
        g = np.asarray(gamma, dtype=float)
        if t.ndim != 1 or t.shape != g.shape or t.size < 8:
            raise ValueError("need matching 1-d sample arrays, at least 8 points")
        if t[0] != 0.0 or np.any(np.diff(t) <= 0):
            raise ValueError("sample abscissae must increase from 0")
        self.ell = float(t[-1])
        self._t_samples = t
        self._g_samples = g
        if end_conditions is None:
            end_conditions = ([(1, 1.0), (2, 0.0)], [(1, -1.0), (2, 0.0)])
        self._end_conditions = end_conditions
        sp = make_interp_spline(t, g, k=5, bc_type=end_conditions)
        self._sp_derivs = [sp] + [sp.derivative(k) for k in (1, 2, 3)]
        self._sp_Gam = sp.antiderivative()
        self._Gam0 = float(self._sp_Gam(0.0))

    def jet(self, t, order: int = 1):
        t = np.asarray(t, dtype=float)
        derivs = [sp(t) for sp in self._sp_derivs[:order + 1]]
        return (*derivs, -1.0 + (self._sp_Gam(t) - self._Gam0))

    def gamma_integral(self) -> float:
        return float(self._sp_Gam(self.ell) - self._Gam0)

    def to_dict(self):
        return {"kind": "samples", "ell": self.ell,
                "t": self._t_samples.tolist(),
                "gamma": self._g_samples.tolist(),
                "end_conditions": [[[int(k), float(val)] for k, val in side]
                                   for side in self._end_conditions]}


class StretchBump:
    """Even C^4 bump density rho on [-w, w] with unit integral.

    rho(x) = (1 - (x/w)^2)^p / (w c_p), with c_p = integral of (1-v^2)^p on
    [-1, 1]. R is the centered cumulative, R(x) = integral of rho from 0 to
    x, so R(+-w) = +-1/2. Both keep their relative precision at the edges
    of the support: rho as a power of (1 - u)(1 + u) with u = x/w, R through
    the mass of rho beyond |u| = 1 - y, a polynomial in y from y^(p+1) up.
    """

    def __init__(self, half_width: float, exponent: int = 5):
        if half_width <= 0:
            raise ValueError("bump half_width must be positive")
        if exponent < 3:
            raise ValueError("exponent >= 3 keeps the bump C^2 at its edges")
        self.half_width = float(half_width)
        self.exponent = int(exponent)
        # 1 - u^2 = y (2 - y) at depth y = 1 - |u|
        prim = (np.polynomial.Polynomial([0.0, 2.0, -1.0])
                ** self.exponent).integ()
        self._norm = 2.0 * prim(1.0)          # c_p
        self._tail = prim / self._norm        # mass of rho beyond depth y

    def _u(self, x):
        return np.clip(np.asarray(x, dtype=float) / self.half_width, -1.0, 1.0)

    def density(self, x):
        u = self._u(x)
        return (((1.0 - u) * (1.0 + u)) ** self.exponent
                / (self._norm * self.half_width))

    def ddensity(self, x):
        u, p = self._u(x), self.exponent
        return (-2.0 * p * u * ((1.0 - u) * (1.0 + u)) ** (p - 1)
                / (self._norm * self.half_width**2))

    def cumulative(self, x):
        """R(x): odd, equals -1/2 left of the support and +1/2 right of it."""
        u = self._u(x)
        return np.sign(u) * (0.5 - self._tail(1.0 - np.abs(u)))

    def to_dict(self):
        return {"half_width": self.half_width, "exponent": self.exponent}


def _collar_area(base: ProfileFunction, bump: StretchBump, center: float):
    """The collar grid, uniform in the base parameter t over the bump's
    support, and the weighted area P(t), the integral of gamma_base rho from
    its start to each point by 6-point Gauss quadrature on every cell."""
    w = bump.half_width
    t = np.linspace(center - w, center + w, _TABLE_CELLS + 1)
    x, wq = gauss_nodes(6)
    tt = t[:-1, None] + np.diff(t)[:, None] * x[None, :]
    f = np.asarray(base.gamma(tt)) * np.asarray(bump.density(tt - center))
    dP = (np.diff(t)[:, None] * wq[None, :] * f).sum(axis=1)
    return t, np.concatenate(([0.0], np.cumsum(dP)))


class StretchedProfile(ProfileFunction):
    """Insert a collar of extra length 2C around center c of a base profile.

    The meridian is reparametrized by s = F(t) = t + 2C (R(t - c) + 1/2), so
    that the band [c - w, c + w] of the base is spread over a band of width
    2w + 2C while everything outside is translated rigidly. gamma values are
    transported (gamma_C(F(t)) = gamma_base(t)), which preserves both
    endpoint jets exactly and adds 2C * integral(gamma_base * rho) to the
    gamma integral; the added area is affine in C, which normalize_stretch
    exploits.

    The rigid zones read the base itself, shifted by 2C past the collar, so
    round caps stay exact. The collar's exact jets at s = F(t), from the
    chain rule through F, are tabulated at build on a grid uniform in t,
    which crowds the knots at the edges, where F - t is flat to fifth order.
    """

    kind = "stretched"

    def __init__(self, base: ProfileFunction, C: float, bump: StretchBump,
                 center: float):
        if C < 0:
            raise ValueError("stretch amount C must be nonnegative")
        w = bump.half_width
        if not (0.0 < center - w and center + w < base.ell):
            raise ValueError("bump support must lie strictly inside (0, ell)")
        self.base = base
        self.C = float(C)
        self.bump = bump
        self.center = float(center)
        self.ell = base.ell + 2.0 * self.C
        self._s_lo = center - w            # collar start (same in s and t)
        self._s_hi = center + w + 2.0 * C  # collar end in s
        t, P = _collar_area(base, bump, center)
        self.weighted_area = float(P[-1])
        x = t - center
        dF = 1.0 + 2.0 * self.C * bump.density(x)
        ddF = 2.0 * self.C * bump.ddensity(x)
        g, dg, ddg, G = base.jet(t, 2)
        s = t + 2.0 * self.C * (bump.cumulative(x) + 0.5)
        s[0], s[-1] = self._s_lo, self._s_hi
        self._collar = _ColumnSpline(s, np.column_stack(
            [g, dg / dF, (ddg - dg * ddF / dF) / dF**2, G + 2.0 * self.C * P]))

    def jet(self, s, order: int = 1):
        s = np.asarray(s, dtype=float)
        past = s >= self._s_hi
        base = self.base.jet(np.where(past, s - 2.0 * self.C, s), order)
        collar = self._collar.jet(np.clip(s, self._s_lo, self._s_hi), order)
        inside = (s > self._s_lo) & ~past
        jet = [np.where(inside, c, b) for c, b in zip(collar, base)]
        # past the collar Gamma carries the whole weighted area
        jet[-1] = jet[-1] + np.where(
            past, 2.0 * self.C * self.weighted_area, 0.0)
        return tuple(jet)

    def point_jet(self):
        """The base's point_jet in the rigid zones and the collar's Taylor
        table between them."""
        base, collar = self.base.point_jet(), self._collar.point_jet()
        lo, hi, shift = self._s_lo, self._s_hi, 2.0 * self.C
        lift = 2.0 * self.C * self.weighted_area

        def at(s):
            if s <= lo:
                return base(s)
            if s < hi:
                return collar(s)
            g, dg, G = base(s - shift)
            return g, dg, G + lift
        return at

    def gamma_integral(self) -> float:
        return self.base.gamma_integral() + 2.0 * self.C * self.weighted_area

    def to_dict(self):
        return {"kind": "stretched", "C": self.C, "center": self.center,
                "bump": self.bump.to_dict(), "base": self.base.to_dict()}


# -- constructors -------------------------------------------------------------


def make_sphere(radius: float = 1.0) -> SphereProfile:
    return SphereProfile(radius)


def make_ellipsoid(ratio: float) -> ProfileFunction:
    """Area-normalized ellipsoid of revolution; ratio 1 returns the sphere."""
    if ratio == 1.0:
        return SphereProfile(1.0)
    return EllipsoidProfile(ratio)


def stretch(p: ProfileFunction, C: float, bump: StretchBump,
            center: float | None = None) -> ProfileFunction:
    """Stretched profile with collar 2C; C = 0 returns p itself."""
    if C == 0.0:
        return p
    if center is None:
        center = 0.5 * p.ell
    return StretchedProfile(p, C, bump, center)


def normalize_stretch(p: ProfileFunction, bump: StretchBump,
                      center: float | None = None) -> ProfileFunction:
    """Choose the collar length so the stretched profile has area 4 pi.

    Needs gamma_integral(p) < 2, i.e. a base with area deficit to absorb.
    Because the added integral is linear in C, the solve is a single
    division by the weighted area, from the quadrature the profile's own
    gamma_integral uses; the chosen value is available as the C attribute
    of the returned profile.
    """
    if center is None:
        center = 0.5 * p.ell
    base_int = p.gamma_integral()
    if base_int >= 2.0:
        raise ValueError("base profile already has area >= 4 pi")
    C = (2.0 - base_int) / (2.0 * _collar_area(p, bump, center)[1][-1])
    return stretch(p, C, bump, center)


def make_spindle(delta: float, eps: float) -> ProfileFunction:
    """Normalized profile that is a round cap of small radius near each pole.

    The base is a sphere of radius a < 1 chosen so that gamma'(delta) =
    cos(delta / a) < eps; the missing area is restored by stretching a
    collar centered at the apex, which leaves both polar caps of meridian
    depth delta exactly round. Such profiles make the supremum of
    |Gamma + gamma'| / gamma large: past the collar Gamma has absorbed
    almost all of the area while gamma stays below a, so the ratio at the
    delta-latitude already exceeds (1 - eps)/delta - delta. The cap radius
    and collar length are attached as cap_radius and collar_C.
    """
    if not (0.0 < delta < np.pi / 2):
        raise ValueError("need 0 < delta < pi/2")
    if not (0.0 < eps < 1.0):
        raise ValueError("need 0 < eps < 1")
    a = delta / np.arccos(0.9 * eps)
    if a >= 1.0:
        # cos(delta) <= 0.9 eps already; any subunit radius close to 1 works
        a = 0.5 * (1.0 + 2.0 * delta / np.pi)
    if not (2 * delta / np.pi < a and np.cos(delta / a) < eps):
        raise ValueError("no admissible cap radius for these (delta, eps)")
    base = SphereProfile(a)
    apex = 0.5 * base.ell
    w = apex - delta  # collar leaves [0, delta] and [ell - delta, ell] intact
    prof = normalize_stretch(base, StretchBump(w), center=apex)
    prof.cap_radius = a
    prof.collar_C = prof.C
    return prof


def make_negative_action(delta: float, eps: float):
    """Normalized profile whose delta-latitude has gamma'(delta) < -eps.

    The base is a sphere of radius a with delta past its apex, so the
    meridian is already descending at depth delta; the collar that
    restores the area sits strictly between the delta-latitude and the far
    pole. Returns (profile, delta): the designated latitude is t = delta,
    where the steep descent forces gamma' Gamma > gamma^2 and hence a
    negative latitude action.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("need 0 < eps < 1")
    target = eps + 0.1 * (1.0 - eps)  # aim below -eps with 10% margin
    a = delta / (np.pi - np.arccos(target))
    if not (delta / np.pi < a < 2 * delta / np.pi):
        raise ValueError("no admissible cap radius for these (delta, eps)")
    base = SphereProfile(a)
    if not (delta < base.ell):
        raise ValueError("delta-latitude falls outside the base meridian")
    center = 0.5 * (delta + base.ell)
    w = 0.3 * (base.ell - delta)
    prof = normalize_stretch(base, StretchBump(w), center=center)
    prof.cap_radius = a
    return prof, delta


# -- validation ---------------------------------------------------------------


@dataclass
class Condition:
    name: str
    passed: bool
    residual: float
    detail: str = ""


@dataclass
class ValidationReport:
    kind: str
    conditions: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def lines(self):
        out = [f"profile kind={self.kind}: "
               f"{'OK' if self.passed else 'INVALID'}"]
        for c in self.conditions:
            mark = "ok " if c.passed else "FAIL"
            out.append(f"  [{mark}] {c.name:<28s} residual={c.residual:.3e}"
                       + (f"  {c.detail}" if c.detail else ""))
        return out


def validate(p: ProfileFunction, tol: float = 1e-8) -> ValidationReport:
    """Check closure, slope, flat-pole, and area conditions on a dense grid."""
    rep = ValidationReport(kind=p.kind)
    L = p.ell
    (g0, g1), (d0, d1), (dd0, dd1), _ = (
        v.tolist() for v in p.jet(np.array([0.0, L]), 2))
    rep.conditions.append(Condition(
        "endpoint values gamma=0", max(abs(g0), abs(g1)) <= tol,
        max(abs(g0), abs(g1))))
    t = np.linspace(0.0, L, _VALIDATE_CELLS + 1)[1:-1]
    g, dg, _ = p.jet(t, 1)
    gmin = float(g.min())
    rep.conditions.append(Condition(
        "interior positivity", gmin > 0.0, gmin,
        f"min at t={t[np.argmin(g)]:.4g}"))
    rep.conditions.append(Condition(
        "endpoint slopes +1/-1", max(abs(d0 - 1), abs(d1 + 1)) <= tol,
        max(abs(d0 - 1), abs(d1 + 1))))
    dmax = float(np.abs(dg).max())
    rep.conditions.append(Condition(
        "interior slope bound |gamma'|<1", dmax < 1.0, 1.0 - dmax))
    rep.conditions.append(Condition(
        "flat poles gamma''=0", max(abs(dd0), abs(dd1)) <= tol,
        max(abs(dd0), abs(dd1))))
    a = p.gamma_integral()
    rep.conditions.append(Condition(
        "normalization area=4pi", abs(a - 2.0) <= max(tol, 1e-8), abs(a - 2.0),
        f"integral gamma = {a:.12g}"))
    return rep


# -- serialization ------------------------------------------------------------


def from_dict(d: dict) -> ProfileFunction:
    kind = d.get("kind")
    if kind == "sphere":
        return SphereProfile(d.get("radius", 1.0))
    if kind == "ellipsoid":
        return EllipsoidProfile(d["ratio"])
    if kind == "samples":
        return SplineProfile(d["t"], d["gamma"], d.get("end_conditions"))
    if kind == "stretched":
        b = d["bump"]
        return StretchedProfile(from_dict(d["base"]), d["C"],
                                StretchBump(b["half_width"], b.get("exponent", 5)),
                                d["center"])
    raise ValueError(f"unknown profile kind {kind!r}")


def save_profile(p: ProfileFunction, path):
    with open(path, "w") as fh:
        json.dump(p.to_dict(), fh, indent=1)


def load_profile(path) -> ProfileFunction:
    with open(path) as fh:
        return from_dict(json.load(fh))


def parse_profile_spec(spec: str) -> ProfileFunction:
    """Builtin profile names: sphere, ellipsoid:R, spindle:D:E, negative-action:D:E.

    Anything else is treated as a path to a profile JSON file.
    """
    parts = spec.split(":")
    if parts[0] == "sphere" and len(parts) == 1:
        return SphereProfile(1.0)
    if parts[0] == "ellipsoid" and len(parts) == 2:
        return make_ellipsoid(float(parts[1]))
    if parts[0] == "spindle" and len(parts) == 3:
        return make_spindle(float(parts[1]), float(parts[2]))
    if parts[0] == "negative-action" and len(parts) == 3:
        return make_negative_action(float(parts[1]), float(parts[2]))[0]
    return load_profile(spec)
