"""Contact-type certification for magnetic flows on surfaces of revolution.

For strength m > 0 the magnetic flow is Reeb after rescaling exactly when
h = m^2 + 1 - m beta_theta sin(phi) / gamma stays positive, where
beta_theta = Gamma + gamma' is the theta-component of the rotation-invariant
primitive. Positivity over all phi reduces to the profile invariant

    m_gamma = sup over (0, ell) of |beta_theta| / gamma,

which extends by 0 to the poles (the L'Hopital limit is (1 - K) gamma /
gamma' -> 0). Certification: every m > 0 when m_gamma < 2; otherwise m
below m_minus or above m_plus, the roots of m^2 - m_gamma m + 1. Their
product is 1, so the uncertified window always contains m = 1.

The module also evaluates the magnetic curvature K_m = m^2 K + 1, whose
positivity the reduced-dynamics module requires before trusting the
single-band level structure.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import grid_sup
from .profiles import ProfileFunction

SUP_GRID = 4096  # interior points of the m_gamma and min_curvature scans


class ContactPrimitiveError(RuntimeError):
    """Raised when a run requires h > 0 but the primitive fails positivity."""


def beta_theta(p: ProfileFunction, t):
    _, dg, G = p.jet(t, 1)
    return G + dg


def reeb_factor(m: float, beta_theta, sin_phi, gamma):
    """h = m^2 + 1 - m beta_theta sin(phi) / gamma, the Reeb rescaling.

    Bounds use the same spelling: sin_phi = 1 and gamma = 1 with beta_theta
    = m_gamma give the certified floor m^2 + 1 - m m_gamma.
    """
    return m * m + 1.0 - m * beta_theta * sin_phi / gamma


def beta_ratio(p: ProfileFunction, t):
    """beta_theta / gamma, which vanishes at both poles in the limit."""
    g, dg, G = p.jet(t, 1)
    near = np.abs(g) < 1e-9
    out = np.where(near, 0.0, (G + dg) / np.where(near, 1.0, g))
    return out if out.ndim else float(out)


def _m_gamma_argmax(p: ProfileFunction):
    f = lambda t: np.abs(beta_ratio(p, t))
    t_star, val = grid_sup(f, 0.0, p.ell, n=SUP_GRID,
                           endpoint_values=(0.0, 0.0))
    return float(val), float(t_star)


def m_gamma(p: ProfileFunction) -> float:
    """sup |beta_theta|/gamma by dense grid scan plus golden refinement."""
    return _m_gamma_argmax(p)[0]


def m_plus_minus(mg: float, inf_f: float = 1.0):
    """Roots of m^2 - mg m + inf_f; None when the discriminant is negative."""
    disc = mg * mg - 4.0 * inf_f
    if disc < 0.0:
        return None
    r = np.sqrt(disc)
    return (mg - r) / 2.0, (mg + r) / 2.0


# -- magnetic curvature ---------------------------------------------------------


def magnetic_curvature(p: ProfileFunction, m: float, t):
    """K_m = m^2 K + 1 (unit-strength volume-form magnetic system)."""
    return m * m * np.asarray(p.curvature(t)) + 1.0


def min_curvature(p: ProfileFunction) -> float:
    """min K over [0, ell], cached on the profile (immutable after build)."""
    cached = getattr(p, "_min_curvature", None)
    if cached is None:
        K0 = float(p.curvature(0.0))
        K1 = float(p.curvature(p.ell))
        _, neg = grid_sup(lambda t: -np.asarray(p.curvature(t)), 0.0, p.ell,
                          n=SUP_GRID, endpoint_values=(-K0, -K1))
        cached = -neg
        p._min_curvature = cached
    return cached


def km_positive(p: ProfileFunction, m: float) -> bool:
    return m * m * min_curvature(p) + 1.0 > 0.0


def km_positive_threshold(p: ProfileFunction) -> float:
    """Largest m* with K_m > 0 for all m < m*; infinite for K >= 0."""
    mk = min_curvature(p)
    return np.inf if mk >= 0.0 else 1.0 / np.sqrt(-mk)


# -- certified intervals --------------------------------------------------------


@dataclass(frozen=True)
class ContactBoundsReport:
    m_gamma: float
    t_star: float                      # where the sup is attained
    m_minus: float | None              # present iff m_gamma >= 2
    m_plus: float | None
    certified_intervals: tuple
    km_positive_threshold: float

    def contains(self, m: float) -> bool:
        return any(lo < m < hi for lo, hi in self.certified_intervals)

    def to_dict(self):
        return {"m_gamma": self.m_gamma, "t_star": self.t_star,
                "m_minus": self.m_minus, "m_plus": self.m_plus,
                "certified_intervals": [list(iv) for iv in
                                        self.certified_intervals],
                "km_positive_threshold": self.km_positive_threshold}

    def lines(self):
        out = [f"m_gamma = {self.m_gamma:.12g}  (attained near t = "
               f"{self.t_star:.6g})"]
        if self.m_minus is None:
            out.append("contact type certified for all m in (0, inf)")
        else:
            out.append(f"contact type certified for m in (0, "
                       f"{self.m_minus:.12g}) union ({self.m_plus:.12g}, inf)")
            out.append(f"uncertified window contains m = 1 "
                       f"(m_minus * m_plus = {self.m_minus * self.m_plus:.12g})")
        thr = self.km_positive_threshold
        out.append("K_m > 0 for all m" if np.isinf(thr)
                   else f"K_m > 0 for m < {thr:.12g}")
        return out


def contact_interval(p: ProfileFunction) -> ContactBoundsReport:
    """Certified contact report: intervals from the m_gamma quadratic."""
    mg, t_star = _m_gamma_argmax(p)
    thr = km_positive_threshold(p)
    if mg < 2.0:
        return ContactBoundsReport(mg, t_star, None, None,
                                   ((0.0, np.inf),), thr)
    lo, hi = m_plus_minus(mg)
    return ContactBoundsReport(mg, t_star, lo, hi,
                               ((0.0, lo), (hi, np.inf)), thr)


def h_min(p: ProfileFunction, m: float) -> float:
    """Certified lower bound m^2 + 1 - m * m_gamma for h over the unit bundle."""
    return reeb_factor(m, m_gamma(p), 1.0, 1.0)
