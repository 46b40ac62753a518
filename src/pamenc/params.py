"""Actuator, plant, and controller parameter sets plus flat key-value files.

Pressures are absolute kPa everywhere, angles are radians inside the
library (reference profiles are the single degree-valued boundary), forces
are N, torques N*m, stiffness N*m/rad.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Callable

PRESSURE_MIN = 200.0
PRESSURE_MAX = 750.0
THETA_LIMIT = math.radians(25.0)

# Least-squares slope of sin(theta) ~ k*theta over the +-25 deg operating
# range; used for the default force-estimator coefficients.
SIN_FIT_SLOPE = 3.0 * (math.sin(THETA_LIMIT) - THETA_LIMIT * math.cos(THETA_LIMIT)) / THETA_LIMIT**3


@dataclass(frozen=True)
class MuscleCoeffs:
    """Affine force-map coefficients (a1*x + a2)*P + (b1*x + b2).

    For the force model x is muscle length (m); for the estimator x is
    joint angle (rad).
    """

    a1: float
    a2: float
    b1: float
    b2: float


@dataclass(frozen=True)
class PamParams:
    """Joint geometry plus per-muscle force and estimator coefficients."""

    r: float
    L0: float
    force_coeffs: tuple[MuscleCoeffs, MuscleCoeffs]
    est_coeffs: tuple[MuscleCoeffs, MuscleCoeffs]

    def __post_init__(self):
        if not (self.r > 0.0 and self.L0 > 0.0):
            raise ValueError("r and L0 must be positive")
        if self.r >= self.L0:
            raise ValueError("r must be smaller than L0 so lengths stay positive")
        if len(self.force_coeffs) != 2 or len(self.est_coeffs) != 2:
            raise ValueError("exactly two muscles expected")


@dataclass(frozen=True)
class SurrogatePlantParams:
    """Rigid joint + first-order valve/pressure lag standing in for the real plant.

    valve_tau pairs with the default force-map slope: the discrete force
    loop's one-step gain is (1 - exp(-Ts/valve_tau)) * Gp_F * 55 * a1 * L0,
    and the 1.0 s default puts it near deadbeat (~0.9) at a1 = 55.
    """

    J: float = 5e-3
    c_damp: float = 0.05
    valve_tau: float = 1.0
    valve_offset: float = 200.0  # kPa at 0 V
    valve_slope: float = 55.0    # kPa per V
    load_torque: float = 0.0
    substeps: int = 10

    def __post_init__(self):
        if self.J <= 0.0 or self.valve_tau <= 0.0:
            raise ValueError("J and valve_tau must be positive")
        if self.substeps < 1:
            raise ValueError("substeps must be >= 1")
        if self.valve_slope <= 0.0:
            raise ValueError("valve map must be monotone increasing")
        lo = self.valve_offset
        hi = self.valve_offset + 10.0 * self.valve_slope
        if lo < PRESSURE_MIN - 1e-9 or hi > PRESSURE_MAX + 1e-9:
            raise ValueError("valve map must send [0,10] V into [200,750] kPa")

    def valve_map(self, u: float) -> float:
        """Commanded pressure (kPa) for a valve voltage."""
        return self.valve_offset + self.valve_slope * u


@dataclass(frozen=True)
class Gains:
    """PI gains, valve bias voltages, and the sampling period."""

    gp_theta: float
    gi_theta: float
    gp_force: float
    gi_force: float
    beta1: float = 5.0
    beta2: float = 5.0
    ts: float = 0.02

    def __post_init__(self):
        if self.ts <= 0.0:
            raise ValueError("ts must be positive")
        for g in (self.gp_theta, self.gi_theta, self.gp_force, self.gi_force):
            if not math.isfinite(g):
                raise ValueError("gains must be finite")


def estimator_from_force(r: float, L0: float, fc: MuscleCoeffs, muscle: int) -> MuscleCoeffs:
    """Angle-based estimator coefficients induced by a length-based force map.

    Substitutes l = L0 -/+ r*k*theta into (a1*l + a2)*P + b1*l + b2, with
    k = SIN_FIT_SLOPE, the least-squares fit of sin over the operating range
    (k = 1 would be the Taylor linearization). It keeps the residual torque
    bias gradient below the angle-loop restoring gain.
    """
    sgn = -1.0 if muscle == 0 else 1.0
    return MuscleCoeffs(
        a1=sgn * fc.a1 * r * SIN_FIT_SLOPE,
        a2=fc.a1 * L0 + fc.a2,
        b1=sgn * fc.b1 * r * SIN_FIT_SLOPE,
        b2=fc.b1 * L0 + fc.b2,
    )


def _default_pam() -> PamParams:
    # Default set tuned for closed-loop trackability under the published PI
    # structure: r = 0.071 keeps stiffness steps of 3 N*m/rad from clamping
    # the valves and makes the 4-9 N*m/rad band reachable; a1 = 55 sets the
    # force-loop integral rate (the angle loop's effective damping is
    # c_damp + K_P * Gi_F^-1 / (55 * a1 * L0), so small slopes make the loop
    # uselessly slow) while staying under the 64-bit fixed-point overflow
    # guard; b2 = 5 keeps the f3/f4 terms inside their polynomial support.
    r, L0 = 0.071, 0.170
    fc = MuscleCoeffs(a1=55.0, a2=-0.102, b1=-25480.0, b2=5.0)
    return PamParams(
        r=r,
        L0=L0,
        force_coeffs=(fc, fc),
        est_coeffs=(
            estimator_from_force(r, L0, fc, 0),
            estimator_from_force(r, L0, fc, 1),
        ),
    )


DEFAULT_PAM = _default_pam()
DEFAULT_PLANT = SurrogatePlantParams()

# Paper-published gain sets plus the surrogate-tuned default.  The published
# angle gains were tuned to the physical rig; on the surrogate plant their
# load-rejection time constant far exceeds the 10 s settling budget, so
# closed-loop runs default to the `surrogate` preset.
GAIN_PRESETS: dict[str, Gains] = {
    "sim": Gains(gp_theta=0.25, gi_theta=0.13, gp_force=0.088, gi_force=0.08),
    "table2": Gains(gp_theta=1.3, gi_theta=0.243, gp_force=0.088, gi_force=0.025),
    "surrogate": Gains(gp_theta=1.3, gi_theta=0.8, gp_force=0.088, gi_force=0.08),
}
DEFAULT_GAINS = GAIN_PRESETS["surrogate"]


# ---------------------------------------------------------------------------
# Flat key-value parameter files: one `name = value` per line, `#` comments.

def parse_kv_text(text: str, convert: Callable[[str], object] = float) -> dict[str, object]:
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'name = value', got {raw!r}")
        name, _, val = line.partition("=")
        name = name.strip()
        if name in values:
            raise ValueError(f"line {lineno}: duplicate key {name!r}")
        try:
            values[name] = convert(val.strip())
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad numeric value for {name!r}") from exc
    return values


def _check_keys(values: dict[str, float], expected: set[str], what: str) -> None:
    unknown = sorted(set(values) - expected)
    missing = sorted(expected - set(values))
    if unknown:
        raise ValueError(f"{what}: unknown keys {unknown}")
    if missing:
        raise ValueError(f"{what}: missing keys {missing}")


_MUSCLE_FIELDS = ("a1", "a2", "b1", "b2")

PAM_KEYS = {"r", "L0"} | {
    f"{prefix}{field}_{m}"
    for prefix in ("", "hat_")
    for field in _MUSCLE_FIELDS
    for m in (1, 2)
}


def pam_to_dict(p: PamParams) -> dict[str, float]:
    out = {"r": p.r, "L0": p.L0}
    for m in (1, 2):
        fc, ec = p.force_coeffs[m - 1], p.est_coeffs[m - 1]
        for field in _MUSCLE_FIELDS:
            out[f"{field}_{m}"] = getattr(fc, field)
            out[f"hat_{field}_{m}"] = getattr(ec, field)
    return out


def pam_from_dict(values: dict[str, float]) -> PamParams:
    _check_keys(values, PAM_KEYS, "PAM parameter file")

    def muscle(prefix: str, m: int) -> MuscleCoeffs:
        return MuscleCoeffs(*(values[f"{prefix}{f}_{m}"] for f in _MUSCLE_FIELDS))

    return PamParams(
        r=values["r"],
        L0=values["L0"],
        force_coeffs=(muscle("", 1), muscle("", 2)),
        est_coeffs=(muscle("hat_", 1), muscle("hat_", 2)),
    )


PLANT_KEYS = {"J", "c_damp", "valve_tau", "valve_offset", "valve_slope", "load_torque", "substeps"}


def plant_to_dict(p: SurrogatePlantParams) -> dict[str, float]:
    return {
        "J": p.J,
        "c_damp": p.c_damp,
        "valve_tau": p.valve_tau,
        "valve_offset": p.valve_offset,
        "valve_slope": p.valve_slope,
        "load_torque": p.load_torque,
        "substeps": float(p.substeps),
    }


def plant_from_dict(values: dict[str, float]) -> SurrogatePlantParams:
    _check_keys(values, PLANT_KEYS, "plant parameter file")
    kwargs = dict(values)
    kwargs["substeps"] = int(round(kwargs["substeps"]))
    return SurrogatePlantParams(**kwargs)


GAINS_KEYS = {"gp_theta", "gi_theta", "gp_force", "gi_force", "beta1", "beta2", "ts"}


def gains_to_dict(g: Gains) -> dict[str, float]:
    return {k: getattr(g, k) for k in sorted(GAINS_KEYS)}


def gains_from_dict(values: dict[str, float]) -> Gains:
    _check_keys(values, GAINS_KEYS, "gains file")
    return Gains(**values)


def save_kv(path: str | Path, values: dict[str, float]) -> None:
    lines = [f"{k} = {values[k]!r}" for k in values]
    Path(path).write_text("\n".join(lines) + "\n")


def load_pam_params(path: str | Path) -> PamParams:
    return pam_from_dict(parse_kv_text(Path(path).read_text()))


def load_plant_params(path: str | Path) -> SurrogatePlantParams:
    return plant_from_dict(parse_kv_text(Path(path).read_text()))


def load_gains(name_or_path: str | Path) -> Gains:
    """Resolve a preset name or a gains parameter file path."""
    if isinstance(name_or_path, str) and name_or_path in GAIN_PRESETS:
        return GAIN_PRESETS[name_or_path]
    return gains_from_dict(parse_kv_text(Path(name_or_path).read_text()))


def with_load_mass(plant: SurrogatePlantParams, mass_kg: float, pam: PamParams) -> SurrogatePlantParams:
    """Plant with the hanging-mass load torque m*g*r applied from t=0."""
    return replace(plant, load_torque=mass_kg * 9.81 * pam.r)


def load_table2_muscle() -> PamParams:
    """Raw published coefficient values (including the suspect p2_a1 exponent)."""
    text = resources.files("pamenc.data").joinpath("table2_muscle.txt").read_text()
    return pam_from_dict(parse_kv_text(text))
