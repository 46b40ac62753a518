"""PAM geometry, contraction-force and stiffness maps, and the surrogate plant.

The force map is affine in pressure with length-dependent coefficients; the
estimator is the same shape with angle-dependent coefficients. The surrogate
plant is a rigid joint with viscous damping plus a first-order valve/pressure
lag, integrated by semi-implicit Euler.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .params import (
    PRESSURE_MAX,
    PRESSURE_MIN,
    THETA_LIMIT,
    PamParams,
    SurrogatePlantParams,
)


class PlantState(NamedTuple):
    """Joint angle/velocity and absolute inner pressures.

    An immutable tuple in field order, so `theta, theta_dot, P1, P2 = state`
    unpacks it; the loop builds two of these per control period.
    """

    theta: float = 0.0
    theta_dot: float = 0.0
    P1: float = PRESSURE_MIN
    P2: float = PRESSURE_MIN


def pam_lengths(theta: float, params: PamParams) -> tuple[float, float]:
    """Muscle lengths l1 = L0 - r*sin(theta), l2 = L0 + r*sin(theta)."""
    d = params.r * math.sin(theta)
    l1, l2 = params.L0 - d, params.L0 + d
    if l1 <= 0.0 or l2 <= 0.0:
        raise ValueError(f"nonpositive muscle length at theta={theta!r}")
    return l1, l2


def contraction_force(length: float, pressure: float, muscle: int, params: PamParams) -> float:
    """Contraction force (a1*l + a2)*P + (b1*l + b2) for one muscle."""
    c = params.force_coeffs[muscle]
    return (c.a1 * length + c.a2) * pressure + (c.b1 * length + c.b2)


def alpha(pressure: float, muscle: int, params: PamParams) -> float:
    """Length-independent force component a2*P + b2."""
    c = params.force_coeffs[muscle]
    return c.a2 * pressure + c.b2


def joint_torque(theta: float, F1: float, F2: float, params: PamParams) -> float:
    """Joint torque r*cos(theta)*(F1 - F2)."""
    return params.r * math.cos(theta) * (F1 - F2)


def joint_stiffness(theta: float, F1: float, F2: float, P1: float, P2: float,
                    params: PamParams) -> float:
    """Joint stiffness: r*sin(th)*(F1-F2) + r^2*cos^2(th)*((F1-a1)/l1 + (F2-a2)/l2)."""
    l1, l2 = pam_lengths(theta, params)
    c = math.cos(theta)
    return params.r * math.sin(theta) * (F1 - F2) + params.r**2 * c * c * (
        (F1 - alpha(P1, 0, params)) / l1 + (F2 - alpha(P2, 1, params)) / l2
    )


def estimate_force(theta: float, pressure: float, muscle: int, params: PamParams) -> float:
    """Angle-based force estimate (a1h*th + a2h)*P + (b1h*th + b2h)."""
    c = params.est_coeffs[muscle]
    return (c.a1 * theta + c.a2) * pressure + (c.b1 * theta + c.b2)


def measured_stiffness(state: PlantState, params: PamParams) -> float:
    """Stiffness at the current plant state using the model force map.

    `joint_stiffness` of the `contraction_force`s at the `pam_lengths`,
    written out on locals term for term in the same order, so it rounds
    exactly as those helpers do, with the lengths computed once.
    """
    theta, _, P1, P2 = state
    r = params.r
    c1, c2 = params.force_coeffs
    d = r * math.sin(theta)
    l1, l2 = params.L0 - d, params.L0 + d
    if l1 <= 0.0 or l2 <= 0.0:
        raise ValueError(f"nonpositive muscle length at theta={theta!r}")
    F1 = (c1.a1 * l1 + c1.a2) * P1 + (c1.b1 * l1 + c1.b2)
    F2 = (c2.a1 * l2 + c2.a2) * P2 + (c2.b1 * l2 + c2.b2)
    c = math.cos(theta)
    return d * (F1 - F2) + r**2 * c * c * (
        (F1 - (c1.a2 * P1 + c1.b2)) / l1 + (F2 - (c2.a2 * P2 + c2.b2)) / l2
    )


def plant_step(state: PlantState, u1: float, u2: float, sp: SurrogatePlantParams,
               pp: PamParams, dt: float, n: int = 1) -> PlantState:
    """`n` semi-implicit Euler substeps of the surrogate plant under one held command.

    Pressures relax toward the valve-commanded values and are clamped to the
    allowable set; the joint integrates muscle torque minus damping and load,
    with a hard stop at +-25 deg that zeroes the velocity. The valve targets
    are mapped once, since (u1, u2) holds for all `n` substeps; each substep
    is the same arithmetic as a single call, so the result equals `n` chained
    calls bit for bit.

    The substep is `pam_lengths`, `contraction_force` and `joint_torque`
    written out on locals hoisted out of the loop, term for term in the same
    order, so it rounds exactly as those helpers do; a call costs a few
    hundred nanoseconds, and a control period runs tens of them.
    """
    a = dt / sp.valve_tau
    target1, target2 = sp.valve_map(u1), sp.valve_map(u2)
    c_damp, load_torque, J = sp.c_damp, sp.load_torque, sp.J
    r, L0 = pp.r, pp.L0
    (a1_1, a2_1, b1_1, b2_1), (a1_2, a2_2, b1_2, b2_2) = (
        (c.a1, c.a2, c.b1, c.b2) for c in pp.force_coeffs)
    sin, cos = math.sin, math.cos
    theta, theta_dot, P1, P2 = state
    for _ in range(n):
        P1 = P1 + a * (target1 - P1)
        P2 = P2 + a * (target2 - P2)
        # min(max(P, PRESSURE_MIN), PRESSURE_MAX) in two compares; a NaN passes through both
        if P1 < PRESSURE_MIN:
            P1 = PRESSURE_MIN
        elif P1 > PRESSURE_MAX:
            P1 = PRESSURE_MAX
        if P2 < PRESSURE_MIN:
            P2 = PRESSURE_MIN
        elif P2 > PRESSURE_MAX:
            P2 = PRESSURE_MAX

        d = r * sin(theta)
        l1, l2 = L0 - d, L0 + d
        if l1 <= 0.0 or l2 <= 0.0:
            raise ValueError(f"nonpositive muscle length at theta={theta!r}")
        F1 = (a1_1 * l1 + a2_1) * P1 + (b1_1 * l1 + b2_1)
        F2 = (a1_2 * l2 + a2_2) * P2 + (b1_2 * l2 + b2_2)
        tau = r * cos(theta) * (F1 - F2)

        theta_ddot = (tau - c_damp * theta_dot - load_torque) / J
        theta_dot = theta_dot + dt * theta_ddot
        theta = theta + dt * theta_dot
        if theta >= THETA_LIMIT:
            theta, theta_dot = THETA_LIMIT, 0.0
        elif theta <= -THETA_LIMIT:
            theta, theta_dot = -THETA_LIMIT, 0.0

    return PlantState(theta, theta_dot, P1, P2)
