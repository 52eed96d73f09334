"""A fixed reference kernel that measures the machine's current speed.

The shared machines this benchmark runs on change speed, by up to 1.9x,
within seconds or for minutes at a time, while the program stays the same. Process CPU time
moves with wall time there (the slowdown is contention for the core, not
time taken away from it), so it cannot separate the program from the
machine. This kernel can: it uses only Python, numpy and scipy, never
magflow, so no change to the package changes its time. A run times it
between its own operations (Speedometer) and reports times scaled to a
machine on which the kernel takes NOMINAL_S (see run.py).

Its parts mirror what magflow's workloads spend their time on:

- ode: scipy's DOP853 on a scalar Python right-hand side, as in
  flow.integrate and cz;
- vector: many numpy calls on arrays of a few hundred elements, as in the
  vector jets and band quadrature of reduced;
- array: products over (n, n, 3) float64 arrays, as in hopf's Gauss
  passes, at n = 250 so that the kernel adds little to the peak RSS.
"""
from __future__ import annotations

import math
import statistics
import time

import numpy as np
from scipy.integrate import solve_ivp

NOMINAL_S = 0.15       # kernel time that defines a nominal second
WINDOW = 2             # samples on each side that scale an operation


def _ode():
    def rhs(s, y):
        t, phi, _ = y
        g = math.sin(t) * (1.0 + 0.1 * math.cos(2.0 * t))
        return (math.cos(phi), (0.8 * g - math.cos(t)) / g * 0.3
                + math.sin(phi) * 0.1, 0.8 / (g * g + 1.0))
    sol = solve_ivp(rhs, (0.0, 60.0), (1.2, 0.4, 0.0), method="DOP853",
                    rtol=1e-11, atol=1e-12)
    return float(sol.y[0, -1])


def _vector():
    u = np.linspace(0.0, 0.5 * np.pi, 256)
    w = np.cos(u)
    acc = 0.0
    for k in range(2400):
        t = 0.2 + 0.0002 * k + (2.5 - 0.0003 * k) * np.sin(u) ** 2
        g = np.sin(t) * (1.0 + 0.05 * np.cos(2.0 * t))
        G = np.cos(t) - 0.03 * np.sin(2.0 * t)
        W = np.maximum(1.7 * g * g - (0.1 + G) ** 2, 1e-12)
        acc += float(np.dot(w, g / np.sqrt(W)))
    return acc


def _array():
    rng = np.random.default_rng(12345)
    X = rng.standard_normal((250, 1, 3))
    Y = rng.standard_normal((1, 250, 3))
    acc = 0.0
    for _ in range(8):
        r = X - Y
        c = np.cross(X, Y)
        acc += float(np.sum(np.sum(r * c, axis=-1) / np.sum(r * r, axis=-1)))
    return acc


PARTS = (_ode, _vector, _array)


def kernel_s() -> float:
    """Seconds the whole kernel takes now."""
    t0 = time.perf_counter()
    for part in PARTS:
        part()
    return time.perf_counter() - t0


class Speedometer:
    """Kernel times taken between a run's operations, at most every_s
    apart, so that each operation can be scaled by the machine's speed
    around it. One sample is noisy (the speed changes within seconds),
    so an operation is scaled by the mean of a few on each side."""

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.samples: list[float] = []
        self._last = -math.inf

    def sample(self):
        self.samples.append(kernel_s())
        self._last = time.perf_counter()

    def between_ops(self):
        if time.perf_counter() - self._last >= self.every_s:
            self.sample()

    def around(self, i: int) -> float:
        """Mean kernel time of the WINDOW samples just before and the
        WINDOW samples just after something that started when i samples
        had been taken."""
        return statistics.mean(self.samples[max(0, i - WINDOW):i + WINDOW])
