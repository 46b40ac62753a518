"""The approximated polynomial controller and its matrix-vector form psi = Phi*xi.

Phi is generated by symbolic coefficient collection from the structured
polynomial controller, so the two evaluation paths are algebraically
identical (the published display of Phi contains several typos; the
generated form is authoritative and the structural spot checks it shares
with the display are tested).

xi ordering (1-based):
    [Kp, Kp*th^2, th_ref, th, x_th, th_ref*th, th^2, x_th*th, th_ref*th^2,
     th^3, x_th*th^2, P1, th*P1, P2, th*P2, 1, x_F1, x_F2]
psi ordering: [x_th+, x_F1+, x_F2+, u1, u2].
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .controller import ControllerInput, ControllerState
from .params import Gains, PamParams
from .polyfit import PolyCoeffs, eval_fhat

XI_DIM = 18
PSI_DIM = 5

XI_NAMES = (
    "Kp", "Kp*th^2", "th_ref", "th", "x_th", "th_ref*th", "th^2", "x_th*th",
    "th_ref*th^2", "th^3", "x_th*th^2", "P1", "th*P1", "P2", "th*P2", "1",
    "x_F1", "x_F2",
)


def build_xi(zin: ControllerInput, state: ControllerState) -> np.ndarray:
    """Assemble the 18-monomial controller input vector (angles in radians)."""
    th = zin.theta
    th2 = th * th
    return np.array([
        zin.kp_ref,
        zin.kp_ref * th2,
        zin.theta_ref,
        th,
        state.x_theta,
        zin.theta_ref * th,
        th2,
        state.x_theta * th,
        zin.theta_ref * th2,
        th2 * th,
        state.x_theta * th2,
        zin.P1,
        th * zin.P1,
        zin.P2,
        th * zin.P2,
        1.0,
        state.x_f1,
        state.x_f2,
    ])


def _core_row(coeffs: PolyCoeffs, est, gains: Gains, extra_const: float,
              extra_quad: float) -> list[float]:
    """Monomial coefficients (xi columns 1..16) of h for one muscle.

    `extra_const`/`extra_quad` add f5h's constant and theta^2 coefficients for
    the second muscle's row (its h uses f2h + f5h); `est` is that muscle's
    estimator coefficient set.
    """
    w = coeffs
    gp, gi = gains.gp_theta, gains.gi_theta
    c0 = w[6] + extra_const   # constant coefficient of f2h (+ f5h)
    c2 = w[5] + extra_quad    # theta^2 coefficient of f2h (+ f5h)
    c1 = w[4]                 # theta coefficient (f5h has none)
    return [
        w[1],                       # Kp
        w[2],                       # Kp*th^2
        gp * c0,                    # th_ref
        -gp * c0 - est.b1,          # th
        gi * c0,                    # x_th
        gp * c1,                    # th_ref*th
        -gp * c1,                   # th^2
        gi * c1,                    # x_th*th
        gp * c2,                    # th_ref*th^2
        -gp * c2,                   # th^3
        gi * c2,                    # x_th*th^2
        0.0,                        # P1 (filled by caller)
        0.0,                        # th*P1 (filled by caller)
        0.0,                        # P2 (filled by caller)
        0.0,                        # th*P2 (filled by caller)
        w[3] + w[9] + w[12] - est.b2,  # 1
    ]


def build_phi(coeffs: PolyCoeffs, pam: PamParams, gains: Gains) -> np.ndarray:
    """Generate the 5x18 coefficient matrix from the polynomial controller."""
    est1, est2 = pam.est_coeffs
    w = coeffs

    core1 = _core_row(coeffs, est1, gains, 0.0, 0.0)
    core1[11] = w[7] - est1.a2   # P1
    core1[12] = w[8] - est1.a1   # th*P1
    core1[13] = w[10]            # P2
    core1[14] = w[11]            # th*P2

    core2 = _core_row(coeffs, est2, gains, w[14], w[13])
    core2[11] = w[7]             # P1
    core2[12] = w[8]             # th*P1
    core2[13] = w[10] - est2.a2  # P2
    core2[14] = w[11] - est2.a1  # th*P2

    phi = np.zeros((PSI_DIM, XI_DIM))
    ts, gpf, gif = gains.ts, gains.gp_force, gains.gi_force

    phi[0, 2] = ts
    phi[0, 3] = -ts
    phi[0, 4] = 1.0

    phi[1, :16] = np.array(core1) * ts
    phi[1, 16] = 1.0
    phi[2, :16] = np.array(core2) * ts
    phi[2, 17] = 1.0

    phi[3, :16] = np.array(core1) * gpf
    phi[3, 15] += gains.beta1
    phi[3, 16] = gif
    phi[4, :16] = np.array(core2) * gpf
    phi[4, 15] += gains.beta2
    phi[4, 17] = gif
    return phi


def poly_step(phi: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """psi = Phi @ xi with shape validation."""
    phi = np.asarray(phi)
    xi = np.asarray(xi)
    if phi.shape != (PSI_DIM, XI_DIM):
        raise ValueError(f"Phi must be {PSI_DIM}x{XI_DIM}, got {phi.shape}")
    if xi.shape != (XI_DIM,):
        raise ValueError(f"xi must have {XI_DIM} entries, got {xi.shape}")
    return phi @ xi


def split_psi(psi: np.ndarray) -> tuple[ControllerState, float, float]:
    """Unpack [x_th+, x_F1+, x_F2+, u1, u2] as Python floats."""
    x_theta, x_f1, x_f2, u1, u2 = psi.tolist()
    return ControllerState(x_theta, x_f1, x_f2), u1, u2


def approx_step(state: ControllerState, zin: ControllerInput, coeffs: PolyCoeffs,
                pam: PamParams, gains: Gains) -> tuple[ControllerState, float, float]:
    """Structured evaluation of the polynomial controller (unclamped outputs).

    Mirrors the closed-form rational controller with f1..f5 replaced by their
    polynomial approximations; algebraically identical to
    poly_step(build_phi(...), build_xi(...)).
    """
    th = zin.theta
    e_theta = zin.theta_ref - th
    f1h = eval_fhat(1, coeffs, th, zin.kp_ref, zin.P1, zin.P2)
    f2h = eval_fhat(2, coeffs, th, zin.kp_ref, zin.P1, zin.P2)
    f5h = eval_fhat(5, coeffs, th, zin.kp_ref, zin.P1, zin.P2)
    f3h = eval_fhat(3, coeffs, th, zin.kp_ref, zin.P1, zin.P2)
    f4h = eval_fhat(4, coeffs, th, zin.kp_ref, zin.P1, zin.P2)
    est1, est2 = pam.est_coeffs
    h1 = (f1h + gains.gp_theta * f2h * e_theta + f3h + f4h
          - (est1.a1 * th + est1.a2) * zin.P1 - (est1.b1 * th + est1.b2))
    h2 = (f1h + gains.gp_theta * (f2h + f5h) * e_theta + f3h + f4h
          - (est2.a1 * th + est2.a2) * zin.P2 - (est2.b1 * th + est2.b2))

    ts, git = gains.ts, gains.gi_theta
    x_theta = state.x_theta + ts * e_theta
    x_f1 = state.x_f1 + ts * (git * f2h * state.x_theta + h1)
    x_f2 = state.x_f2 + ts * (git * (f2h + f5h) * state.x_theta + h2)
    u1 = (gains.gp_force * git * f2h * state.x_theta + gains.gi_force * state.x_f1
          + gains.gp_force * h1 + gains.beta1)
    u2 = (gains.gp_force * git * (f2h + f5h) * state.x_theta + gains.gi_force * state.x_f2
          + gains.gp_force * h2 + gains.beta2)
    return ControllerState(x_theta, x_f1, x_f2), u1, u2


def save_phi(path: str | Path, phi: np.ndarray) -> None:
    np.savetxt(path, phi, delimiter=",", fmt="%.17g")


def load_phi(path: str | Path) -> np.ndarray:
    phi = np.loadtxt(path, delimiter=",")
    if phi.shape != (PSI_DIM, XI_DIM):
        raise ValueError(f"Phi file must be {PSI_DIM}x{XI_DIM}, got {phi.shape}")
    return phi
