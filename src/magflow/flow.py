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
the quadrature values. Angles are stored unwrapped.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .contact import reeb_factor
from .profiles import ProfileFunction
from .reduced import I_hat, birkhoff_action, turning_points

POLE_GUARD = 1e-6  # terminate when gamma < POLE_GUARD * ell


class PoleApproachError(RuntimeError):
    """Trajectory entered the guard band around a pole."""


def flow_rhs(p: ProfileFunction, m: float):
    def rhs(s, y):
        g, dg, _ = map(float, p.jet(y[0], 1))
        sp, cp = np.sin(y[1]), np.cos(y[1])
        return (m * cp, 1.0 - m * dg * sp / g, m * sp / g)
    return rhs


def vector_field(p: ProfileFunction, m: float, state) -> np.ndarray:
    """Generator evaluated at state = (t, phi, theta)."""
    t = float(state[0])
    if not (0.0 <= t <= p.ell) or float(p.gamma(t)) < POLE_GUARD * p.ell:
        raise PoleApproachError(f"state too close to a pole: t = {t}")
    return np.asarray(flow_rhs(p, m)(0.0, state), dtype=float)


@dataclass(frozen=True)
class Trajectory:
    m: float
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

    @property
    def state0(self) -> np.ndarray:
        return np.array([self.t[0], self.phi[0], self.theta[0]])

    def csv_lines(self) -> list:
        out = ["s,t,phi,theta,I_hat"]
        for k in range(len(self.s)):
            out.append(",".join("%.12g" % v for v in
                                (self.s[k], self.t[k], self.phi[k],
                                 self.theta[k], self.I_hat[k])))
        return out


def integrate(p: ProfileFunction, m: float, state0, s_max: float,
              n_out: int = 2001, rtol: float = 1e-12,
              atol: float = 1e-14) -> Trajectory:
    """Integrate the flow for time s_max (may be negative).

    Terminates early with pole_terminated when the trajectory enters the
    guard band around either pole, which regular initial data never does.
    """
    y0 = np.asarray(state0, dtype=float)
    guard = POLE_GUARD * p.ell

    def pole_event(s, y):
        return float(p.gamma(np.clip(y[0], 0.0, p.ell))) - guard
    pole_event.terminal = True

    s_eval = np.linspace(0.0, s_max, n_out)
    sol = solve_ivp(flow_rhs(p, m), (0.0, s_max), y0, method="DOP853",
                    t_eval=s_eval, rtol=rtol, atol=atol, events=pole_event,
                    dense_output=False)
    if not sol.success and sol.status != 1:
        raise RuntimeError(f"integration failed: {sol.message}")
    t, phi, theta = sol.y
    return Trajectory(m=m, s=sol.t, t=t, phi=phi, theta=theta,
                      I_hat=I_hat(p, m, t, phi),
                      pole_terminated=(sol.status == 1), nfev=sol.nfev)


# -- states on a level ----------------------------------------------------------


def band_state(p: ProfileFunction, m: float, I: float,
               ascending: bool = True) -> np.ndarray:
    """State at the band midpoint of level I with t increasing (or not)."""
    tp = turning_points(p, m, I)
    t_mid = 0.5 * (tp.t_minus + tp.t_plus)
    g, G = map(float, p.jet(t_mid, 0))
    sp = (I + G) / (m * g)
    if not (-1.0 < sp < 1.0):
        raise ValueError(f"level I = {I} has no interior point at t = {t_mid}")
    phi = np.arcsin(sp) if ascending else np.pi - np.arcsin(sp)
    return np.array([t_mid, phi, 0.0])


def _augmented_rhs(p: ProfileFunction, m: float):
    """Flow rhs with a running integral of h appended."""
    def rhs(s, y):
        g, dg, G = map(float, p.jet(y[0], 1))
        sp, cp = np.sin(y[1]), np.cos(y[1])
        return (m * cp, 1.0 - m * dg * sp / g, m * sp / g,
                reeb_factor(m, G + dg, sp, g))
    return rhs


@dataclass(frozen=True)
class OdeLevel:
    """One reduced period measured on an integrated trajectory."""
    m: float
    I: float
    period: float
    theta_advance: float
    action: float

    @property
    def winding(self) -> float:
        return self.theta_advance / (2.0 * np.pi)


def level_average_ode(p: ProfileFunction, m: float, I: float,
                      rtol: float = 1e-12, atol: float = 1e-12) -> OdeLevel:
    """Measure one reduced period by a section event on t = t_mid.

    Independent of the band quadrature except for the span estimate. The
    returned action is the h average over exactly one period, which by
    periodicity equals the infinite time average.
    """
    y0 = np.concatenate([band_state(p, m, I, ascending=True), [0.0]])
    t_mid = y0[0]
    rhs = _augmented_rhs(p, m)
    try:
        span = 2.5 * birkhoff_action(p, m, I).period
    except Exception:
        span = 200.0 * max(p.ell, 1.0)

    # move off the section first so the terminal event cannot fire at s = 0
    s_leg = 1e-2 * span
    leg = solve_ivp(rhs, (0.0, s_leg), y0, method="DOP853",
                    rtol=rtol, atol=atol)
    if not leg.success:
        raise RuntimeError(f"integration failed: {leg.message}")
    y1 = leg.y[:, -1]

    def section(s, y):
        return y[0] - t_mid
    section.terminal = True
    section.direction = 1.0

    sol = solve_ivp(rhs, (s_leg, span), y1, method="DOP853",
                    rtol=rtol, atol=atol, events=section)
    if sol.status != 1 or len(sol.t_events[0]) == 0:
        raise RuntimeError(f"no reduced period found within span {span}")
    P = float(sol.t_events[0][0])
    yP = sol.y_events[0][0]
    return OdeLevel(m=m, I=I, period=P, theta_advance=float(yP[2] - y0[2]),
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


def birkhoff_action_ode(p: ProfileFunction, m: float, state0,
                        T: float, rtol: float = 1e-12,
                        atol: float = 1e-14) -> float:
    """Time average of h over [0, T] with a Richardson tail correction.

    The running average satisfies A(T) = A_inf + c/T + oscillatory terms,
    so 2 A(T) - A(T/2) cancels the leading tail. For a periodic orbit
    sampled over whole periods this is exact up to integrator error.
    """
    y0 = np.concatenate([np.asarray(state0, dtype=float), [0.0]])
    sol = solve_ivp(_augmented_rhs(p, m), (0.0, T), y0, method="DOP853",
                    t_eval=[0.5 * T, T], rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(f"integration failed: {sol.message}")
    q_half, q_full = sol.y[3]
    A_half = q_half / (0.5 * T)
    A_full = q_full / T
    return float(2.0 * A_full - A_half)


def liouville_action(p: ProfileFunction, m: float, n_t: int = 256,
                     n_phi: int = 256) -> float:
    """Average of h over the whole unit bundle with its invariant volume.

    The volume density is gamma dt dphi dtheta; the theta factor cancels.
    The phi average kills the beta_theta term, so the value is m^2 + 1 for
    every profile, but the quadrature here does not use that.
    """
    from .numerics import gauss_nodes
    u, w = gauss_nodes(n_t)
    t = u * p.ell
    wt = w * p.ell
    g, dg, G = p.jet(t, 1)
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    # h integrand over the (t, phi) torus, weighted by gamma
    H = g[:, None] * reeb_factor(m, (G + dg)[:, None], np.sin(phi)[None, :],
                                 g[:, None])
    num = float(np.sum(wt[:, None] * H) * (2.0 * np.pi / n_phi))
    den = float(np.sum(wt * g) * 2.0 * np.pi)
    return num / den
