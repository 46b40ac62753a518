"""The exact rational angle-stiffness controller.

Two equivalent evaluations are provided: `original_step` composes the
reference generator, force estimator, and PI blocks; `closed_form_step`
evaluates the collected state-space coefficient matrices A, C, g, h. Their
agreement is a correctness gate for both.

Note on signs: the force-reference generator here is the exact inversion of
the stiffness model, which puts +Kp_ref and +alpha terms in F1_ref. The
source material prints conflicting signs for these terms in two places; the
inversion is the variant that actually realizes the commanded stiffness.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .pam import alpha, estimate_force, pam_lengths
from .params import Gains, PamParams


class ControllerState(NamedTuple):
    """Integrator states: angle PI and the two force PIs.

    An immutable tuple in field order; every controller step builds one.
    """

    x_theta: float = 0.0
    x_f1: float = 0.0
    x_f2: float = 0.0

    def as_tuple(self) -> tuple[float, float, float]:
        return tuple(self)


class ControllerInput(NamedTuple):
    """Measured pressures and angle plus the two references (radians, N*m/rad).

    An immutable tuple in field order (P1, P2, theta, theta_ref, kp_ref), so
    the loop builds it positionally; `_replace` gives an edited copy.
    """

    P1: float
    P2: float
    theta: float
    theta_ref: float
    kp_ref: float


def pi_angle_step(x_theta: float, e_theta: float, gains: Gains) -> tuple[float, float]:
    """Angle PI: returns (next integrator state, torque command)."""
    return x_theta + gains.ts * e_theta, gains.gi_theta * x_theta + gains.gp_theta * e_theta


def pi_force_step(x_f: float, e_f: float, beta: float, gains: Gains) -> tuple[float, float]:
    """Force PI: returns (next integrator state, valve voltage)."""
    return x_f + gains.ts * e_f, gains.gi_force * x_f + gains.gp_force * e_f + beta


def rational_terms(theta: float, P1: float, P2: float, kp_ref: float,
                   params: PamParams) -> tuple[float, float, float, float, float]:
    """The five rational building blocks f1..f5 of the reference generator.

    f1 carries +Kp_ref (see module docstring); f5 = -1/(r cos(theta)).
    """
    if abs(theta) >= math.pi / 2:
        raise ValueError("cos(theta) singularity")
    l1, l2 = pam_lengths(theta, params)
    c = math.cos(theta)
    x = l1 * l2 / (params.r**2 * (l1 + l2) * c * c)
    f1 = x * kp_ref
    f2 = x * (params.r * c / l2 - math.tan(theta))
    f3 = alpha(P1, 0, params) * l2 / (l1 + l2)
    f4 = alpha(P2, 1, params) * l1 / (l1 + l2)
    f5 = -1.0 / (params.r * c)
    return f1, f2, f3, f4, f5


def reference_forces(theta: float, tau_c: float, kp_ref: float, P1: float, P2: float,
                     params: PamParams) -> tuple[float, float]:
    """Per-muscle force references realizing (tau_c, kp_ref) at the current angle."""
    f1, f2, f3, f4, f5 = rational_terms(theta, P1, P2, kp_ref, params)
    F1_ref = f1 + f2 * tau_c + f3 + f4
    return F1_ref, F1_ref + f5 * tau_c


def clamp_u(u: float) -> tuple[float, bool]:
    """Valve command clamped to [0, 10] V, and whether it was clamped."""
    if u < 0.0:
        return 0.0, True
    if u > 10.0:
        return 10.0, True
    return u, False


def original_step_raw(state: ControllerState, zin: ControllerInput, gains: Gains,
                      params: PamParams) -> tuple[ControllerState, float, float]:
    """Composed pipeline (reference generator -> estimator -> PIs), unclamped."""
    e_theta = zin.theta_ref - zin.theta
    x_theta_next, tau_c = pi_angle_step(state.x_theta, e_theta, gains)
    F1_ref, F2_ref = reference_forces(zin.theta, tau_c, zin.kp_ref, zin.P1, zin.P2, params)
    e_f1 = F1_ref - estimate_force(zin.theta, zin.P1, 0, params)
    e_f2 = F2_ref - estimate_force(zin.theta, zin.P2, 1, params)
    x_f1_next, u1 = pi_force_step(state.x_f1, e_f1, gains.beta1, gains)
    x_f2_next, u2 = pi_force_step(state.x_f2, e_f2, gains.beta2, gains)
    return ControllerState(x_theta_next, x_f1_next, x_f2_next), u1, u2


def closed_form_step_raw(state: ControllerState, zin: ControllerInput, gains: Gains,
                         params: PamParams) -> tuple[ControllerState, float, float]:
    """Direct evaluation of x+ = A x + g, u = C x + h + beta (unclamped)."""
    f1, f2, f3, f4, f5 = rational_terms(zin.theta, zin.P1, zin.P2, zin.kp_ref, params)
    e_theta = zin.theta_ref - zin.theta
    est1 = estimate_force(zin.theta, zin.P1, 0, params)
    est2 = estimate_force(zin.theta, zin.P2, 1, params)
    h1 = f1 + gains.gp_theta * f2 * e_theta + f3 + f4 - est1
    h2 = f1 + gains.gp_theta * (f2 + f5) * e_theta + f3 + f4 - est2

    ts, git = gains.ts, gains.gi_theta
    a = [
        [1.0, 0.0, 0.0],
        [ts * git * f2, 1.0, 0.0],
        [ts * git * (f2 + f5), 0.0, 1.0],
    ]
    g = [ts * e_theta, ts * h1, ts * h2]
    c = [
        [gains.gp_force * git * f2, gains.gi_force, 0.0],
        [gains.gp_force * git * (f2 + f5), 0.0, gains.gi_force],
    ]
    h = [gains.gp_force * h1, gains.gp_force * h2]

    x = state.as_tuple()
    x_next = tuple(sum(a[i][j] * x[j] for j in range(3)) + g[i] for i in range(3))
    u1 = sum(c[0][j] * x[j] for j in range(3)) + h[0] + gains.beta1
    u2 = sum(c[1][j] * x[j] for j in range(3)) + h[1] + gains.beta2
    return ControllerState(*x_next), u1, u2


def original_step(state: ControllerState, zin: ControllerInput, gains: Gains,
                  params: PamParams) -> tuple[ControllerState, float, float, tuple[bool, bool]]:
    """One controller step with outputs clamped to [0,10] V; flags mark clamping."""
    state_next, u1, u2 = original_step_raw(state, zin, gains, params)
    u1, c1 = clamp_u(u1)
    u2, c2 = clamp_u(u2)
    return state_next, u1, u2, (c1, c2)
