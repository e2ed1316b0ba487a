"""Closed-form reference configurations for the one-phase experiments.

Two exactly solvable harmonic fields with unit gradient on their free
boundary provide ground truth for the interface identities:

* ``StripNeckExact`` — the planar (n = 2) field obtained from the conformal
  map z = w + sinh(w) of a horizontal strip.  Its positivity set is the
  neck {|s| < pi/2 + cosh t} whose generator is a shifted catenoid curve,
  and u(z) = Re cosh(w(z)) is harmonic inside with u = 0 and |grad u| = 1
  on the interface.
* ``SphereShellExact`` — the radial capacitary field outside a sphere of
  radius r0 in dimension n >= 3 (logarithmic for n = 2), again with
  |grad u| = 1 on the sphere.

Both expose the level function locating the positivity set, the exact
Dirichlet data for masked solves, and exact boundary generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonconvergenceError
from .onephase_geometry import Generator


# cap on the Newton steps of the strip neck's conformal inversion; each node
# stops earlier, once its residual reaches the round-off floor
NEWTON_STEPS = 60


@dataclass
class StripNeckExact:
    """Planar neck configuration with generator s = pi/2 + cosh t."""

    def generator_s(self, t):
        return math.pi / 2.0 + np.cosh(t)

    def level(self, s, t):
        """Positive inside {u > 0} = {s < pi/2 + cosh t}."""
        s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
        return (math.pi / 2.0 + np.cosh(t)) - s

    def _invert(self, z):
        """Solve z = w + sinh(w) on the strip |Im w| < pi/2 by Newton.

        A node stops once |w + sinh(w) - z| is within the round-off floor
        4 eps (1 + |z|), so its value does not depend on the nodes inverted
        with it.  Raises ``NonconvergenceError`` when a residual is above
        1e-11 after at most ``NEWTON_STEPS`` steps.
        """
        floor = 4.0 * np.finfo(float).eps * (1.0 + np.abs(z))
        w = 0.5 * z
        for steps in range(NEWTON_STEPS + 1):
            F = w + np.sinh(w) - z
            active = np.abs(F) > floor
            if steps == NEWTON_STEPS or not active.any():
                break
            w = np.where(active, w - F / (1.0 + np.cosh(w)), w)
        res = np.max(np.abs(F)) if np.size(z) else 0.0
        if not np.isfinite(res) or res > 1e-11:
            raise NonconvergenceError(
                f"conformal inversion stalled after {steps} Newton steps "
                f"(residual {res:.3e}, threshold 1e-11)"
            )
        return w

    def _analytic(self, s, t, inside):
        z = np.asarray(t, dtype=float) + 1j * np.asarray(s, dtype=float)
        w = self._invert(np.where(inside, z, 0.0))
        return w

    def u(self, s, t):
        s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
        inside = self.level(s, t) > 0.0
        w = self._analytic(s, t, inside)
        vals = np.real(np.cosh(w))
        return np.where(inside, vals, 0.0)

    def grad(self, s, t):
        """(u_s, u_t) inside the positivity set (zero outside)."""
        s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
        inside = self.level(s, t) > 0.0
        w = self._analytic(s, t, inside)
        dU = np.sinh(w) / (1.0 + np.cosh(w))
        u_t = np.where(inside, np.real(dU), 0.0)
        u_s = np.where(inside, -np.imag(dU), 0.0)
        return u_s, u_t

    def us_gradient(self, s, t):
        """(d_s u_s, d_t u_s) inside the positivity set."""
        s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
        inside = self.level(s, t) > 0.0
        w = self._analytic(s, t, inside)
        d2U = (1.0 + np.cosh(w)) ** (-2)
        v_s = np.where(inside, -np.real(d2U), 0.0)
        v_t = np.where(inside, -np.imag(d2U), 0.0)
        return v_s, v_t

    def boundary_generator(self, t_vals) -> Generator:
        t_vals = np.asarray(t_vals, dtype=float)
        return Generator.from_graph(
            t_vals,
            math.pi / 2.0 + np.cosh(t_vals),
            ds=np.sinh(t_vals),
            dss=np.cosh(t_vals),
        )

    def mean_curvature(self, t_vals):
        """Closed form for n = 2 with the positivity set below the curve."""
        return 1.0 / np.cosh(np.asarray(t_vals, dtype=float)) ** 2

    positive_side = "below"


@dataclass
class SphereShellExact:
    """Radial field outside the sphere r = r0 with unit boundary gradient."""

    n: int
    r0: float = 1.0

    def level(self, s, t):
        s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
        return np.hypot(s, t) - self.r0

    def u_of_r(self, r):
        r = np.asarray(r, dtype=float)
        rr = np.maximum(r, self.r0)
        if self.n == 2:
            vals = self.r0 * np.log(rr / self.r0)
        else:
            vals = self.r0 / (self.n - 2) * (1.0 - (self.r0 / rr) ** (self.n - 2))
        return np.where(r > self.r0, vals, 0.0)

    def du_of_r(self, r):
        r = np.asarray(r, dtype=float)
        rr = np.maximum(r, self.r0)
        return np.where(r > self.r0, self.r0 ** (self.n - 1) * rr ** (1 - self.n), 0.0)

    def u(self, s, t):
        s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
        return self.u_of_r(np.hypot(s, t))

    def grad(self, s, t):
        s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
        r = np.hypot(s, t)
        rr = np.maximum(r, 1e-300)
        du = self.du_of_r(r)
        return du * s / rr, du * t / rr

    def boundary_generator(self, n_samples: int = 513) -> Generator:
        """Arc of the sphere 0.35 rad away from the poles, traversed north to south."""
        theta = np.linspace(0.35, math.pi - 0.35, n_samples)
        return Generator.from_parametric(
            theta,
            self.r0 * np.sin(theta),
            self.r0 * np.cos(theta),
            ds=self.r0 * np.cos(theta),
            dt=-self.r0 * np.sin(theta),
            dss=-self.r0 * np.sin(theta),
            dtt=-self.r0 * np.cos(theta),
        )

    positive_side = "left"


def catenoid_generator(t_vals, scale: float = 1.0) -> Generator:
    """The catenoid generator s = scale * cosh(t / scale) with exact derivatives."""
    t_vals = np.asarray(t_vals, dtype=float)
    return Generator.from_graph(
        t_vals,
        scale * np.cosh(t_vals / scale),
        ds=np.sinh(t_vals / scale),
        dss=np.cosh(t_vals / scale) / scale,
    )


def catenoid_mean_curvature(t_vals, n: int, scale: float = 1.0):
    """Closed form (n-3)/(scale cosh^2) with the positivity set above the curve."""
    c = np.cosh(np.asarray(t_vals, dtype=float) / scale)
    return (n - 3) / (scale * c * c)


def catenoid_curv_sq(t_vals, n: int, scale: float = 1.0):
    """Closed form (n-1)/(scale cosh^2)^2 for the sum of squared curvatures."""
    c = np.cosh(np.asarray(t_vals, dtype=float) / scale)
    return (n - 1) / (scale * c * c) ** 2
