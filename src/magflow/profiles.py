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
vectorized over numpy arrays; a caller that needs one field reads it from
the jet. gamma and curvature are the two views of it that the package
reads. point_jet() returns a scalar evaluator of (gamma, gamma', gamma'',
Gamma) on Python floats, kept on the profile by derived() like all derived
state; it agrees with jet(t, 2) to a few ulp, and the flows, the linearized
flow and the Newton polishes read the profile through it, or through its
readers of (gamma, gamma') and (gamma, gamma', Gamma) where they need no
more.
Every kind without a closed form evaluates one _ColumnSpline, a quintic
spline fitted in numpy and held as Taylor polynomials: the ellipsoid and
the collar of a stretched profile interpolate their exact jets, sampled
once at build, and the samples kind its gamma samples. Its columns run
(gamma, gamma', Gamma, gamma''), so that a jet of order 0 or 1 and every
reader of fewer than four fields read a prefix of them and skip gamma''.
No evaluation solves or inverts anything, and no kind needs scipy.
Evaluation does not clamp or raise outside [0, ell]; callers that
integrate ODEs may probe a few ulps past the ends and receive the natural
smooth extension of the representation.
"""
from __future__ import annotations

import json
import math
import struct
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numerics import gauss_nodes, generated_function

# Below this height the ratio -gamma''/gamma is replaced by its pole limit
# -gamma'''/gamma'; both agree to O(t^2) near a pole but the limit form stays
# conditioned as gamma -> 0.
_POLE_BAND = 1e-3
_TABLE_CELLS = 4096     # cells of the grid a tabulated kind samples on
_VALIDATE_CELLS = 2048  # cells of validate's grid
_BLOCK_BITS = 8         # a point jet fills its Taylor table 256 cells at a time
_BUMP_EXPONENT = 5      # StretchBump's p, written to profile JSON
# a table's columns, in the order it stores them: a reader of n fields reads
# the first n, and returns them in the order _FIELDS[n] names
_COLUMNS = ("g", "dg", "G", "ddg")
_FIELDS = {2: ("g", "dg"), 3: ("g", "dg", "G"), 4: ("g", "dg", "ddg", "G")}


def _point_reader(fields, title, head, exprs, namespace):
    """at(t) -> _FIELDS[fields], each field's expression in exprs: the
    lines head, then those returned, generated with namespace as its
    globals. Every kind's point jet is built here, so a reader of fewer
    fields is the same code less the unread columns."""
    lines = ["def at(t):", *("    " + line for line in head),
             "    return (" + "".join(f"{exprs[f]}, " for f in _FIELDS[fields])
             + ")"]
    return generated_function(lines, "at", f"magflow.profiles {title}, "
                                           f"{fields} fields", namespace)


class ProfileFunction:
    """Base class: jet, _build_point_jet and gamma_integral are those of
    the _ColumnSpline held as _table unless overridden; to_dict is a kind's."""

    kind = "abstract"
    ell: float

    # -- evaluation ---------------------------------------------------------

    def jet(self, t, order: int = 1):
        """(gamma, gamma', ..., d^order gamma / dt^order, Gamma) at t.

        order runs from 0 to 3. Every entry has the shape of t, and all of
        them come from one evaluation at t.
        """
        return self._table.jet(np.asarray(t, dtype=float), order)

    def _build_point_jet(self, fields):
        return self._table.point_jet(fields, f"{self.kind} table")

    def derived(self, name: str, key, build):
        """build(), kept in the profile's __dict__ under name until asked
        for with another key; the value must not refer to the profile."""
        entry = self.__dict__.get(name)
        if entry is None or entry[0] != key:
            entry = self.__dict__[name] = (key, build())
        return entry[1]

    def point_jet(self, fields: int = 4):
        """A float -> _FIELDS[fields] callable for one point at a time, kept
        on the profile per field count (derived): (gamma, gamma', gamma'',
        Gamma) with fields = 4, (gamma, gamma', Gamma) with 3 and (gamma,
        gamma') with 2.

        The linearized flow and the envelope extremum's polish call the
        full reader on Python floats; the turning points, the envelope's
        value at its extremum, the latitude action, band states and the
        level sections read (gamma, gamma', Gamma) with fields = 3, and
        the flow and its pole event (gamma, gamma') with fields = 2. It
        agrees with jet(t, 2) to a few ulp of each column's largest value,
        and every reader with the full one bitwise in the fields it reads.
        """
        return self.derived(f"point jet {fields}", None,
                            lambda: self._build_point_jet(fields))

    def gamma(self, t):
        return self.jet(t, 0)[0]

    def curvature(self, t):
        """Gauss curvature K = -gamma''/gamma, pole limit -gamma'''/gamma'."""
        g, dg, ddg, dddg, _ = self.jet(t, 3)
        with np.errstate(divide="ignore", invalid="ignore"):
            K = np.where(np.abs(g) < _POLE_BAND, -dddg / dg, -ddg / g)
        return K if K.ndim else float(K)

    # -- integrals ----------------------------------------------------------

    def gamma_integral(self) -> float:
        """Integral of gamma over [0, ell] (equals 2 when normalized)."""
        return self._table.integral

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

    def _build_point_jet(self, fields):
        """jet(t, 2) with math in place of numpy: the same operations in
        the same order, so equal to jet bitwise wherever numpy's scalar sin
        and cos round as the C library's do."""
        return _point_reader(
            fields, "sphere", ["u = t / a",
                               "sin, cos = math.sin(u), math.cos(u)"],
            {"g": "a * sin", "dg": "cos", "ddg": "-sin / a",
             "G": "-1.0 + a2 * (1.0 - cos)"},
            {"math": math, "a": self.radius, "a2": self.radius**2})

    def gamma_integral(self) -> float:
        return 2.0 * self.radius**2

    def to_dict(self):
        return {"kind": "sphere", "radius": self.radius}


def _bsplines(t, x, left):
    """The B-splines of degree r = 0 .. 5 on the knots t numbered left - r
    .. left at the points x, left[i] being the knot interval of x[i]:
    entry r has shape (r + 1, len(x)). De Boor's recursion (BSPLVB of A
    Practical Guide to Splines), vectorized over the points."""
    w = t[left + np.arange(-4, 6)[:, None]]    # t[left - 4 .. left + 5]
    right, back = w[5:] - x, x - w[4::-1]      # t[left+1+q] - x, x - t[left-q]
    out = [np.ones((1, len(x)))]
    for r in range(5):
        dr, dl = right[:r + 1], back[r::-1]
        term = out[-1] / (dr + dl)
        b = np.zeros((r + 2, len(x)))
        b[:-1] = dr * term
        b[1:] += dl * term
        out.append(b)
    return out


def _eliminate(a):
    """a[:, b:] after Gauss-Jordan elimination without pivoting on the
    leading b x b blocks of the stack a, of shape (b, w, m), in place."""
    b = a.shape[0]
    for p in range(b):
        row = a[p] / a[p, p]
        a -= a[:, p, None] * row
        a[p] = row
    return a[:, b:]


def _cyclic_reduction(lo, di, up, rhs):
    """x with lo_k x_(k-1) + di_k x_k + up_k x_(k+1) = rhs_k, blocks k on
    the last axis, lo_0 = up_(m-1) = 0. Each level solves all odd block
    rows at once for their unknowns in terms of their neighbours, recurses
    on the even rows, a system half the size, and recovers the odd
    unknowns. No pivoting: the pivots are ratios of principal minors of
    the first system, positive when it is totally positive, as a
    collocation matrix is."""
    b, m = di.shape[0], di.shape[-1]
    if m == 1:
        return _eliminate(np.concatenate([di, rhs], axis=1))
    odd, even = slice(1, None, 2), slice(0, None, 2)
    # odd row j: x_(2j+1) = s_rhs - s_lo x_2j - s_up x_(2j+2)
    s = _eliminate(np.concatenate([di[..., odd], lo[..., odd], up[..., odd],
                                   rhs[..., odd]], axis=1))
    # the even rows as [lo | di | up | rhs] after the substitution
    lo, up = lo[..., even], up[..., even]
    n_even, n_odd = lo.shape[-1], s.shape[-1]
    red = np.concatenate([np.zeros_like(lo), di[..., even], np.zeros_like(up),
                          rhs[..., even]], axis=1)
    left = np.einsum("ijm,jkm->ikm", lo[..., 1:], s[..., :n_even - 1])
    red[:, :2 * b, 1:] -= left[:, :2 * b]
    red[:, 3 * b:, 1:] -= left[:, 2 * b:]
    right = np.einsum("ijm,jkm->ikm", up[..., :n_odd], s)
    red[:, b:3 * b, :n_odd] -= right[:, :2 * b]
    red[:, 3 * b:, :n_odd] -= right[:, 2 * b:]
    del left, right                    # not held through the recursion
    x_even = _cyclic_reduction(red[:, :b], red[:, b:2 * b],
                               red[:, 2 * b:3 * b], red[:, 3 * b:])
    x = np.empty(x_even.shape[:-1] + (m,))
    x[..., even] = x_even
    x[..., odd] = s[:, 2 * b:] - np.einsum("ijm,jkm->ikm", s[:, :b],
                                           x_even[..., :n_odd])
    # the odd rows that have an even row after them
    x[..., 1:-1:2] -= np.einsum("ijm,jkm->ikm", s[:, b:2 * b, :n_even - 1],
                                x_even[..., 1:])
    return x


def _quintic_fit(x, columns, clamped=None):
    """Knots, coefficients (a row per B-spline), _bsplines at x[:-1] and the
    indices in x of the knot intervals' left ends of make_interp_spline(x,
    columns, k=5, bc_type), in numpy with scipy's knots: not-a-knot, or
    gamma', gamma'' clamped = ((d1, d2), (e1, e2)) at the ends. Collocation
    row r holds the splines r - 2 .. r + 3 at its point, within the three
    blocks of four columns around its block of four rows: a block tridiagonal
    system, padded with unit rows, as are the coefficients the ends fix: the
    end values, and when clamped the next two, by de Boor's differences."""
    if not np.all(np.diff(x) > 0.0):
        raise ValueError("spline sample points must increase strictly")
    n, k = len(x), columns.shape[1]
    pad = 0 if clamped is None else 2   # more fixed coefficients per end
    size = n + 2 * pad
    blocks = -(-size // 4)
    t = np.concatenate([np.full(6, x[0]), x[3 - pad:pad - 3],
                        np.full(6, x[-1])])
    i = np.arange(n - 1)
    left = np.clip(i + 3, 5, n - 1) if clamped is None else i + 5
    splines = _bsplines(t, x[:-1], left)
    band = np.zeros((4, 12, blocks))    # [row in block, column, block]
    row, left = i[1:] + pad, left[1:]
    band[row % 4, left - 1 - 4 * (row // 4) + np.arange(6)[:, None],
         row // 4] = splines[5][:, 1:]
    unit = np.r_[0:pad + 1, size - 1 - pad:4 * blocks]
    band[unit % 4, 4 + unit % 4, unit // 4] = 1.0
    rhs = np.zeros((4 * blocks, k))
    rhs[pad:pad + n] = columns
    if clamped is not None:
        (d1, d2), (e1, e2) = clamped
        h, g = x[1] - x[0], x[-1] - x[-2]
        rhs[[0, size - 1]] = columns[[0, -1]]
        rhs[1], rhs[size - 2] = rhs[0] + d1 * h / 5, rhs[size - 1] - e1 * g / 5
        rhs[2] = rhs[1] + (d1 + d2 * h / 4) * (x[2] - x[0]) / 5
        rhs[size - 3] = rhs[size - 2] - (e1 - e2 * g / 4) * (x[-1] - x[-3]) / 5
    coef = _cyclic_reduction(band[:, :4], band[:, 4:8], band[:, 8:],
                             rhs.reshape(blocks, 4, k).transpose(1, 2, 0))
    coef = coef.transpose(1, 2, 0).reshape(k, 4 * blocks)[:, :size].T
    return t, coef, splines, np.r_[0, 3:n - 3] if clamped is None else i


class _ColumnSpline:
    """Quintic splines (gamma, gamma', Gamma, gamma'') by _quintic_fit at the
    points x, as each knot interval's Taylor polynomials about its left end,
    extended past x[0] and x[-1] by the end ones as scipy's BSpline is. With
    clamped None columns holds exact samples of (gamma, gamma', gamma'',
    Gamma), each fitted on its own; else columns is gamma alone, the table
    holds its pieces' derivatives and their antiderivative from Gamma(x[0])
    = -1, whose u^6 coefficient, gamma's u^5 one / 6, is formed where it is
    summed, and integral is gamma's over [x[0], x[-1]] (None when
    not-a-knot). The coefficient of u^(5 - 2 pair - parity) of column j
    (_COLUMNS) on interval i sits at [j, parity, pair, i], so that jet
    gathers one (columns, 2, 3, ...) block per call, of the (gamma, gamma',
    Gamma) prefix alone below order 2, and sums it by Estrin's scheme; its
    gamma''' is the derivative of the gamma'' polynomial."""

    def __init__(self, x, columns, clamped):
        t, d, splines, starts = _quintic_fit(x, columns, clamped)
        n = len(d)
        self.knots = t[5:n + 1]
        self._inner = self.knots[1:-1]
        cells = len(self.knots) - 1
        # coefficient r at each left end: derivative r over r!, its
        # B-spline coefficients d the scaled differences of those of
        # derivative r - 1, weighed by the splines of degree 5 - r, whose
        # last one starts at the interval's left end: 0 there
        self._table = table = np.empty((columns.shape[1], 2, 3, cells))
        powers = [table[:, (5 - r) % 2, (5 - r) // 2] for r in range(6)]
        d = d.T if clamped is not None else d.T[[0, 1, 3, 2]]  # _COLUMNS
        for r in range(6):
            if r:
                d = (6 - r) * np.diff(d, axis=1) / (t[6:n + 6 - r] - t[r:n])
            w = splines[5 - r][:max(5 - r, 1), starts] / math.factorial(r)
            np.multiply(w[0], d[:, :cells], out=powers[r])
            for q in range(1, len(w)):
                powers[r] += w[q] * d[:, q:q + cells]
        self.integral = None
        if clamped is not None:
            a, powers = np.array(powers)[:, 0], np.zeros((6, 4, cells))
            for j, col in enumerate((0, 1, 3)):     # gamma, gamma', gamma''
                powers[:6 - j, col] = a[j:] * np.array(
                    [math.perm(r, j) for r in range(j, 6)])[:, None]
            powers[1:, 2] = a[:5] / np.arange(1.0, 6.0)[:, None]
            swept = np.polynomial.polynomial.polyval(     # as point_jet
                np.diff(self.knots), np.r_[powers[:, 2], a[5:] / 6.0], False)
            swept = np.r_[0.0, np.cumsum(swept)]
            powers[0, 2], self.integral = -1.0 + swept[:-1], float(swept[-1])
            self._table = np.ascontiguousarray(
                powers[::-1].reshape(3, 2, 4, cells).transpose(2, 1, 0, 3))

    def jet(self, t, order: int):
        i = self._inner.searchsorted(t, "right")
        u = t - self.knots.take(i)
        c = (self._table if order > 1 else self._table[:3]).take(i, axis=3)
        third = ()
        if order == 3:
            a = c[3]
            d3 = 5.0 * a[0, 0]
            for k, ak in ((4, a[1, 0]), (3, a[0, 1]), (2, a[1, 1]),
                          (1, a[0, 2])):
                d3 = d3 * u + k * ak
            third = (d3,)
        # the sums run in c, the gather's own copy; on a clamped table
        # Gamma's u^6 coefficient, gamma's u^5 one / 6 as in point_jet, is
        # read before they overwrite it
        if self.integral is not None:
            six = c[0, 0, 0] / 6.0
        v = c[:, 0]                    # Estrin: a_odd u + a_even, then in u^2
        v *= u
        v += c[:, 1]
        u *= u
        if self.integral is not None:
            v[2, 0] += six * u
        jet = v[:, 0] * u
        jet += v[:, 1]
        jet *= u
        jet += v[:, 2]
        lead = jet[:order + 1] if order < 2 else (jet[0], jet[1], jet[3])
        return (*lead, *third, jet[2])

    @cached_property
    def _reads(self):
        table, size = self._table, 1 << _BLOCK_BITS
        blocks = [None] * -(-(len(self.knots) - 1) // size)

        def fill(b):
            part = table[..., b * size:(b + 1) * size].transpose(3, 0, 2, 1)
            blocks[b] = coef = array("d", part.tobytes())
            return coef
        return {"knots": self.knots.tolist(), "blocks": blocks, "fill": fill,
                "bisect_right": bisect_right}

    def point_jet(self, fields, title):
        """The table one interval at a time, found by bisection on the knots
        (a list, 0.13 MB): the first 6 * fields of the interval's 24
        doubles, column by column (_COLUMNS) and highest power first, by
        Horner, from an array('d') per block of 2**_BLOCK_BITS intervals
        (49 kB) copied from the table on first read and shared by the
        readers (_reads); Gamma's on a clamped table starts from its u^6
        term, gamma's u^5 one / 6."""
        bits, last, powers = _BLOCK_BITS, len(self.knots) - 1, "543210"
        lead = {} if self.integral is None else {"G": "(g5 / 6.0 * u + G5)"}
        horner = {c: f"(((({lead.get(c, c + '5')} * u + {c}4) * u + {c}3) * u"
                     f" + {c}2) * u + {c}1) * u + {c}0" for c in _COLUMNS}
        return _point_reader(fields, title, [
            f"i = bisect_right(knots, t, 1, {last}) - 1",
            "".join(f"{c}{r}, " for c in _COLUMNS[:fields] for r in powers)
            + f"= unpack(blocks[i >> {bits}] or fill(i >> {bits}), "
              f"192 * (i & {(1 << bits) - 1}))", "u = t - knots[i]"],
            horner, {**self._reads,
                     "unpack": struct.Struct(f"{6 * fields}d").unpack_from})


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
        sin_uu = np.sin(uu)
        sp = np.sqrt(np.cos(uu) ** 2 + rho**2 * sin_uu ** 2)
        dcell_t = np.diff(u)[:, None] * w[None, :] * sp
        dcell_I = dcell_t * sin_uu
        t_raw = np.concatenate(([0.0], np.cumsum(dcell_t.sum(axis=1))))
        I_raw = np.concatenate(([0.0], np.cumsum(dcell_I.sum(axis=1))))
        # raw jets from the parametrization gamma_raw(u) = sin u
        g_raw, cos_u = np.sin(u), np.cos(u)
        spu = np.sqrt(cos_u ** 2 + rho**2 * g_raw ** 2)
        dg = cos_u / spu
        ddg_raw = -g_raw * (spu**2 + cos_u ** 2 * (rho**2 - 1.0)) / spu**4
        # rescale t -> s*t so that integral gamma = 2
        s = np.sqrt(2.0 / I_raw[-1])
        t = s * t_raw
        t[0], g_raw[0], dg[0], ddg_raw[0] = 0.0, 0.0, 1.0, 0.0
        g_raw[-1], dg[-1], ddg_raw[-1] = 0.0, -1.0, 0.0
        self.ell = float(t[-1])
        Gam = -1.0 + s * s * I_raw
        self._table = _ColumnSpline(
            t, np.column_stack([s * g_raw, dg, ddg_raw / s, Gam]), None)
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

    def gamma_integral(self) -> float:
        return 2.0

    def to_dict(self):
        return {"kind": "ellipsoid", "ratio": self.ratio}


class SplineProfile(ProfileFunction):
    """Profile from samples (t_i, gamma_i) on [0, ell], quintic interpolation.

    The _ColumnSpline through the samples is clamped to gamma' = +1 / -1
    and gamma'' = 0 at the ends unless end_conditions, one (1, gamma') and
    one (2, gamma'') pair per end, overrides them (useful for building
    deliberately invalid profiles in tests). Its gamma', gamma'' and Gamma
    are the spline's exact derivatives and antiderivative.
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
        self._t_samples, self._g_samples = t, g
        if end_conditions is None:
            end_conditions = ([(1, 1.0), (2, 0.0)], [(1, -1.0), (2, 0.0)])
        try:   # JSON input: one (1, gamma') and one (2, gamma'') pair per end
            self._clamped = [[float(dict(side)[k]) for k in (1, 2)]
                             for side in end_conditions]
        except (TypeError, ValueError, KeyError):
            self._clamped = ()
        if len(self._clamped) != 2 or any(len(s) != 2 for s in end_conditions):
            raise ValueError("end_conditions needs one (1, gamma') and one "
                             f"(2, gamma'') pair per end: {end_conditions!r}")
        self._table = _ColumnSpline(t, g[:, None], self._clamped)

    def to_dict(self):
        return {"kind": "samples", "ell": self.ell,
                "t": self._t_samples.tolist(),
                "gamma": self._g_samples.tolist(),
                "end_conditions": [[[1, d1], [2, d2]]
                                   for d1, d2 in self._clamped]}


class StretchBump:
    """Even C^4 bump density rho on [-w, w] with unit integral.

    rho(x) = (1 - (x/w)^2)^p / (w c_p), with c_p = integral of (1-v^2)^p on
    [-1, 1]. R is the centered cumulative, R(x) = integral of rho from 0 to
    x, so R(+-w) = +-1/2. Both keep their relative precision at the edges
    of the support: rho as a power of (1 - u)(1 + u) with u = x/w, R through
    the mass of rho beyond |u| = 1 - y, a polynomial in y from y^(p+1) up.
    """

    def __init__(self, half_width: float):
        if half_width <= 0:
            raise ValueError("bump half_width must be positive")
        self.half_width = float(half_width)
        # 1 - u^2 = y (2 - y) at depth y = 1 - |u|
        prim = (np.polynomial.Polynomial([0.0, 2.0, -1.0])
                ** _BUMP_EXPONENT).integ()
        self._norm = 2.0 * prim(1.0)          # c_p
        self._tail = prim / self._norm        # mass of rho beyond depth y

    def _u(self, x):
        return np.clip(np.asarray(x, dtype=float) / self.half_width, -1.0, 1.0)

    def density(self, x):
        u = self._u(x)
        return (((1.0 - u) * (1.0 + u)) ** _BUMP_EXPONENT
                / (self._norm * self.half_width))

    def ddensity(self, x):
        u, p = self._u(x), _BUMP_EXPONENT
        return (-2.0 * p * u * ((1.0 - u) * (1.0 + u)) ** (p - 1)
                / (self._norm * self.half_width**2))

    def cumulative(self, x):
        """R(x): odd, equals -1/2 left of the support and +1/2 right of it."""
        u = self._u(x)
        return np.sign(u) * (0.5 - self._tail(1.0 - np.abs(u)))

    def to_dict(self):
        return {"half_width": self.half_width, "exponent": _BUMP_EXPONENT}


def _collar_area(base: ProfileFunction, bump: StretchBump, center: float):
    """The collar grid, uniform in the base parameter t over the bump's
    support, and the weighted area P(t), the integral of gamma_base rho from
    its start to each point by 6-point Gauss quadrature on every cell.

    normalize_stretch needs P to choose C, and the StretchedProfile it then
    builds needs the same P: the base keeps it (derived), keyed by bump
    and center, for the second call. Its arrays are read-only.
    """
    def build():
        w = bump.half_width
        t = np.linspace(center - w, center + w, _TABLE_CELLS + 1)
        x, wq = gauss_nodes(6)
        tt = t[:-1, None] + np.diff(t)[:, None] * x[None, :]
        f = np.asarray(base.gamma(tt)) * np.asarray(bump.density(tt - center))
        dP = (np.diff(t)[:, None] * wq[None, :] * f).sum(axis=1)
        P = np.concatenate(([0.0], np.cumsum(dP)))
        t.flags.writeable = P.flags.writeable = False
        return t, P
    return base.derived("collar area", (bump, center), build)


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
            [g, dg / dF, (ddg - dg * ddF / dF) / dF**2, G + 2.0 * self.C * P]),
            None)

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

    def _build_point_jet(self, fields):
        """The base's point_jet in the rigid zones and the collar's Taylor
        table between them, reading the same fields."""
        return _point_reader(fields, "stretched", [
            "if t <= lo: return base(t)", "if t < hi: return collar(t)",
            "".join(f"{c}, " for c in _FIELDS[fields]) + "= base(t - shift)"],
            {"g": "g", "dg": "dg", "ddg": "ddg", "G": "G + lift"},
            {"base": self.base.point_jet(fields),
             "collar": self._collar.point_jet(fields, "stretched collar"),
             "lo": self._s_lo, "hi": self._s_hi, "shift": 2.0 * self.C,
             "lift": 2.0 * self.C * self.weighted_area})

    def gamma_integral(self) -> float:
        return self.base.gamma_integral() + 2.0 * self.C * self.weighted_area

    def to_dict(self):
        return {"kind": "stretched", "C": self.C, "center": self.center,
                "bump": self.bump.to_dict(), "base": self.base.to_dict()}


# -- constructors -------------------------------------------------------------


def make_sphere() -> SphereProfile:
    """The unit sphere, the normalized closed-form profile."""
    return SphereProfile(1.0)


def make_ellipsoid(ratio: float) -> ProfileFunction:
    """Area-normalized ellipsoid of revolution; ratio 1 returns the sphere."""
    if ratio == 1.0:
        return SphereProfile(1.0)
    return EllipsoidProfile(ratio)


def normalize_stretch(p: ProfileFunction, bump: StretchBump,
                      center: float) -> StretchedProfile:
    """Choose the collar length so the stretched profile has area 4 pi.

    Needs gamma_integral(p) < 2, i.e. a base with area deficit to absorb.
    Because the added integral is linear in C, the solve is a single
    division by the weighted area, from the quadrature the profile's own
    gamma_integral uses; the chosen value is available as the C attribute
    of the returned profile.
    """
    base_int = p.gamma_integral()
    if base_int >= 2.0:
        raise ValueError("base profile already has area >= 4 pi")
    C = (2.0 - base_int) / (2.0 * _collar_area(p, bump, center)[1][-1])
    return StretchedProfile(p, C, bump, center)


def make_spindle(delta: float, eps: float) -> ProfileFunction:
    """Normalized profile that is a round cap of small radius near each pole.

    The base is a sphere of radius a < 1 chosen so that gamma'(delta) =
    cos(delta / a) < eps; the missing area is restored by stretching a
    collar centered at the apex, which leaves both polar caps of meridian
    depth delta exactly round. Such profiles make the supremum of
    |Gamma + gamma'| / gamma large: past the collar Gamma has absorbed
    almost all of the area while gamma stays below a, so the ratio at the
    delta-latitude already exceeds (1 - eps)/delta - delta. The cap radius
    is the base's, p.base.radius; the collar length is the profile's own C.
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
    return normalize_stretch(base, StretchBump(w), apex)


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
    return normalize_stretch(base, StretchBump(w), center), delta


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
    conditions: list

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
    L = p.ell
    (g0, g1), (d0, d1), (dd0, dd1), _ = (
        v.tolist() for v in p.jet(np.array([0.0, L]), 2))
    t = np.linspace(0.0, L, _VALIDATE_CELLS + 1)[1:-1]
    g, dg, _ = p.jet(t, 1)
    gmin = float(g.min())
    dmax = float(np.abs(dg).max())
    a = p.gamma_integral()
    return ValidationReport(kind=p.kind, conditions=[
        Condition("endpoint values gamma=0", max(abs(g0), abs(g1)) <= tol,
                  max(abs(g0), abs(g1))),
        Condition("interior positivity", gmin > 0.0, gmin,
                  f"min at t={t[np.argmin(g)]:.4g}"),
        Condition("endpoint slopes +1/-1",
                  max(abs(d0 - 1), abs(d1 + 1)) <= tol,
                  max(abs(d0 - 1), abs(d1 + 1))),
        Condition("interior slope bound |gamma'|<1", dmax < 1.0, 1.0 - dmax),
        Condition("flat poles gamma''=0", max(abs(dd0), abs(dd1)) <= tol,
                  max(abs(dd0), abs(dd1))),
        Condition("normalization area=4pi", abs(a - 2.0) <= max(tol, 1e-8),
                  abs(a - 2.0), f"integral gamma = {a:.12g}")])


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
        if b.get("exponent", _BUMP_EXPONENT) != _BUMP_EXPONENT:
            raise ValueError(f"bump exponent must be {_BUMP_EXPONENT}: {b}")
        return StretchedProfile(from_dict(d["base"]), d["C"],
                                StretchBump(b["half_width"]), d["center"])
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
