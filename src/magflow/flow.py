"""Direct integration of the magnetic flow on the unit tangent bundle.

Coordinates (t, phi, theta): meridian arclength, angle of the tangent
vector from the meridian direction, rotation angle. The generator for
strength m is

    dt/ds     = m cos(phi)
    dphi/ds   = 1 - m gamma'(t) sin(phi) / gamma(t)
    dtheta/ds = m sin(phi) / gamma(t)

which conserves I_hat = m gamma sin(phi) - Gamma. This module is the
independent cross-check for the band quadrature in reduced: periods, theta
advances and time-averaged actions measured on trajectories must reproduce
the quadrature values.

Trajectories are integrated by numerics.dop853 on Python floats, with the
profile read through p.point_jet(2), the reader of (gamma, gamma') alone;
the level sections read (gamma, gamma', Gamma) through p.point_jet(3).
Angles are stored unwrapped, and the error weight of phi and theta is
fixed at atol + rtol * pi: with scipy's weight atol + rtol * |y| the
tolerance on phi loosens as phi grows (about 2 rad per unit s on band
orbits), and the invariant drifts linearly in s (docs/decisions.md, entry
10).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contact import reeb_factor
from .numerics import dop853
from .profiles import ProfileFunction
from .reduced import I_hat, birkhoff_action, turning_points

POLE_GUARD = 1e-6  # stop within POLE_GUARD * ell of a pole in t, ~ gamma
ANGLES = (1, 2)    # phi and theta, the components with a fixed error weight
N_OUT = 2001       # samples of an integrate run, and flow trace's --n-out
RTOL = 1e-12       # integrate's tolerances, and flow trace's --rtol, --atol
ATOL = 1e-14
LEVEL_RTOL = 1e-12  # tolerances of level_average_ode's runs
LEVEL_ATOL = 1e-12


def flow_rhs(jet, m: float):
    """The generator for strength m, on a profile read through
    jet = p.point_jet(2), the (gamma, gamma') prefix reader."""
    def rhs(s, y):
        g, dg = jet(y[0])
        sp, cp = math.sin(y[1]), math.cos(y[1])
        return (m * cp, 1.0 - m * dg * sp / g, m * sp / g)
    return rhs


@dataclass(frozen=True)
class Trajectory:
    s: np.ndarray
    t: np.ndarray
    phi: np.ndarray
    theta: np.ndarray
    I_hat: np.ndarray
    pole_terminated: bool
    nfev: int

    @property
    def I_drift(self) -> float:
        """Max deviation of the invariant from its initial value."""
        return float(np.max(np.abs(self.I_hat - self.I_hat[0])))

    def csv_lines(self) -> list:
        out = ["s,t,phi,theta,I_hat"]
        for k in range(len(self.s)):
            out.append(",".join("%.12g" % v for v in
                                (self.s[k], self.t[k], self.phi[k],
                                 self.theta[k], self.I_hat[k])))
        return out


def integrate(p: ProfileFunction, m: float, state0, s_max: float,
              n_out: int = N_OUT, rtol: float = RTOL,
              atol: float = ATOL) -> Trajectory:
    """Integrate the flow for finite time s_max (may be negative) from t0
    clear of the pole guards; stops early with pole_terminated when t comes
    within POLE_GUARD ell of a pole, which regular initial data never does.
    """
    jet, ell = p.point_jet(2), p.ell
    guard = POLE_GUARD * ell
    if not math.isfinite(s_max):
        raise ValueError(f"integration time s_max = {s_max!r} is not finite")
    if not guard < state0[0] < ell - guard:
        raise ValueError(f"start t0 = {state0[0]!r} is not inside "
                         f"({guard!r}, {ell - guard!r}), clear of the poles")

    def pole_event(s, y):
        return min(y[0], ell - y[0]) - guard

    run = dop853(flow_rhs(jet, m), 0.0, state0, s_max,
                 np.linspace(0.0, s_max, n_out), rtol=rtol, atol=atol,
                 angles=ANGLES, event=pole_event)
    t, phi, theta = run.y.T
    return Trajectory(s=run.t, t=t, phi=phi, theta=theta,
                      I_hat=I_hat(p, m, t, phi),
                      pole_terminated=run.terminated, nfev=run.nfev)


# -- states on a level ----------------------------------------------------------


def band_state(p: ProfileFunction, m: float, I: float) -> np.ndarray:
    """State at the band midpoint of level I with t increasing."""
    t_mid = 0.5 * sum(turning_points(p, m, I))
    g, _, G = p.point_jet(3)(t_mid)
    sp = (I + G) / (m * g)
    if not (-1.0 < sp < 1.0):
        raise ValueError(f"level I = {I} has no interior point at t = {t_mid}")
    return np.array([t_mid, np.arcsin(sp), 0.0])


def _augmented_rhs(jet, m: float):
    """Flow rhs with a running integral of h appended, on a profile read
    through jet = p.point_jet(3), the (gamma, gamma', Gamma) reader."""
    def rhs(s, y):
        g, dg, G = jet(y[0])
        sp, cp = math.sin(y[1]), math.cos(y[1])
        return (m * cp, 1.0 - m * dg * sp / g, m * sp / g,
                reeb_factor(m, G + dg, sp, g))
    return rhs


@dataclass(frozen=True)
class OdeLevel:
    """One reduced period measured on an integrated trajectory."""
    period: float
    theta_advance: float
    action: float


def level_average_ode(p: ProfileFunction, m: float, I: float) -> OdeLevel:
    """Measure one reduced period by a section event on t = t_mid.

    The run starts on the section, which dop853 does not count as a
    crossing. Independent of the band quadrature except for the span
    estimate, 2.5 quadrature periods; a level that birkhoff_action rejects
    raises here too. The returned action is the h average over exactly one
    period, which by periodicity equals the infinite time average.
    """
    y0 = np.concatenate([band_state(p, m, I), [0.0]])
    t_mid = y0[0]
    span = 2.5 * birkhoff_action(p, m, I).period

    def section(s, y):
        return y[0] - t_mid

    sol = dop853(_augmented_rhs(p.point_jet(3), m), 0.0, y0, span,
                 rtol=LEVEL_RTOL, atol=LEVEL_ATOL, angles=ANGLES,
                 event=section, direction=1.0)
    if not sol.terminated:
        raise RuntimeError(f"no reduced period found within span {span}")
    P, yP = sol.t_end, sol.y_end
    return OdeLevel(period=P, theta_advance=float(yP[2] - y0[2]),
                    action=float(yP[3] - y0[3]) / P)


def compare_level(p: ProfileFunction, m: float, I: float) -> dict:
    """Quadrature level against its ODE measurement (relative errors)."""
    quad = birkhoff_action(p, m, I)
    ode = level_average_ode(p, m, I)
    return {"period_rel": abs(ode.period - quad.period) / quad.period,
            "action_rel": abs(ode.action - quad.action)
            / max(abs(quad.action), 1e-30),
            "theta_rel": abs(ode.theta_advance - 2.0 * quad.theta_half)
            / max(abs(2.0 * quad.theta_half), 2.0 * np.pi),
            "quad": quad, "ode": ode}
