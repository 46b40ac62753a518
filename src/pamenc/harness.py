"""Closed-loop orchestration, reference profiles, traces, and scoring.

A run is: warm-up at the bias voltage, then one controller step per sampling
period against the surrogate plant (several inner integration substeps per
period). There are two controllers: the rational controller, and the
matrix controller psi = Phi xi. The encrypted controller is the matrix
controller with only that product evaluated under ElGamal, by an evaluator
in-process or behind the TCP service. The trace records degree-valued
angles for plotting; everything inside the loop is radians.
"""

from __future__ import annotations

import csv
import math
import time
from array import array
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .controller import ControllerInput, ControllerState, clamp_u, original_step
from .crypto import (
    Ciphertext,
    Drbg,
    ElGamalKeys,
    EncodingParams,
    Pad,
    PhiMasks,
    check_finite,
    check_overflow_guard,
    dec_plus,
    draw_pads,
    enc_eval,
    enc_matrix,
    enc_vector,
)
from .pam import PlantState, measured_stiffness, plant_step
from .params import (
    DEFAULT_GAINS,
    DEFAULT_PAM,
    DEFAULT_PLANT,
    PRESSURE_MAX,
    PRESSURE_MIN,
    THETA_LIMIT,
    Gains,
    PamParams,
    SurrogatePlantParams,
)
from .polyctrl import build_xi, poly_step, split_psi
from .service import DeviceSession

WARMUP_VOLTAGE = 5.5

# Flag bits for the trace's clamp_flags column.
FLAG_U1_CLAMPED = 1
FLAG_U2_CLAMPED = 2
FLAG_THETA_STOP = 4
FLAG_PRESSURE_LIMIT = 8
FLAG_DEADLINE_OVERRUN = 16  # controller step took longer than Ts (recorded, not fatal)


@dataclass(frozen=True)
class ReferenceProfile:
    """Piecewise-constant (angle deg, stiffness) references on [0, duration)."""

    segments: tuple[tuple[float, float, float, float], ...]  # (t0, t1, theta_deg, kp)

    def __post_init__(self):
        t_prev = 0.0
        for t0, t1, _, _ in self.segments:
            if not math.isclose(t0, t_prev, abs_tol=1e-12) or t1 <= t0:
                raise ValueError("segments must be contiguous and non-overlapping from t=0")
            t_prev = t1

    @property
    def duration(self) -> float:
        return self.segments[-1][1] if self.segments else 0.0

    def lookup(self, t: float) -> tuple[float, float]:
        """(theta_ref_deg, kp_ref) at time t; right-open segments."""
        for t0, t1, th, kp in self.segments:
            if t0 <= t < t1:
                return th, kp
        if self.segments and math.isclose(t, self.duration):
            return self.segments[-1][2], self.segments[-1][3]
        raise ValueError(f"t={t} outside profile horizon")


def _three_segments(specs: Sequence[tuple[float, float]]) -> ReferenceProfile:
    return ReferenceProfile(tuple(
        (i * 15.0, (i + 1) * 15.0, th, kp) for i, (th, kp) in enumerate(specs)
    ))


REF1 = _three_segments([(10.0, 8.0), (10.0, 6.0), (10.0, 4.0)])
REF2 = _three_segments([(5.0, 9.0), (15.0, 6.0), (10.0, 7.0)])

PROFILES = {"ref1": REF1, "ref2": REF2}


def load_profile(path: str | Path) -> ReferenceProfile:
    """Profile CSV: header start,end,theta_ref_deg,kp_ref."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["start", "end", "theta_ref_deg", "kp_ref"]:
            raise ValueError("expected header start,end,theta_ref_deg,kp_ref")
        segs = tuple((float(a), float(b), float(c), float(d)) for a, b, c, d in reader)
    return ReferenceProfile(segs)


def resolve_profile(name_or_path: str | Path) -> ReferenceProfile:
    if isinstance(name_or_path, str) and name_or_path in PROFILES:
        return PROFILES[name_or_path]
    return load_profile(name_or_path)


class MetricWindow(NamedTuple):
    k0: int
    k1: int


# Final 5 s of each 15 s segment at Ts = 20 ms.
CANONICAL_WINDOWS = (MetricWindow(500, 749), MetricWindow(1250, 1499), MetricWindow(2000, 2249))

TRACE_COLUMNS = (
    "time", "theta_ref_deg", "kp_ref", "theta_deg", "k_p", "u1", "u2",
    "p1", "p2", "e_theta_deg", "e_kp", "compute_time", "clamp_flags",
)


@dataclass
class SimTrace:
    """Column-oriented per-step record of one closed-loop run."""

    columns: dict[str, np.ndarray]
    xi: np.ndarray | None = None  # (n, 18) when recorded
    offline_time: float = 0.0  # seconds of work between steps (measure_time); not in the CSV

    def __len__(self) -> int:
        return len(self.columns["time"])

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    def to_csv(self, path: str | Path) -> None:
        """Write the trace as CSV: a header row, then one row per step, CRLF-ended.

        The text is what `csv.writer` writes for these cells, none of which
        needs quoting, joined here a block of rows at a time.
        """
        names = list(TRACE_COLUMNS)
        cols = [self.columns[c] for c in names]
        if self.xi is not None:
            names += [f"xi_{j}" for j in range(1, 19)]
            cols += [self.xi[:, j] for j in range(18)]
        with open(path, "w", newline="") as fh:
            fh.write(",".join(names) + "\r\n")
            for k in range(0, len(self), _CSV_BLOCK):
                rows = zip(*[_fmt_column(col[k:k + _CSV_BLOCK]) for col in cols])
                fh.write("".join([",".join(row) + "\r\n" for row in rows]))

    @classmethod
    def from_csv(cls, path: str | Path) -> "SimTrace":
        """Read a trace CSV; every cell parses as `float()` parses it.

        The rows are parsed by one `np.loadtxt` call, which gives each cell
        the double that `float()` gives it. A file without a header, a row
        whose cell count differs from the header's, or a cell that is not a
        number raises ValueError.
        """
        with open(path, newline="") as fh:
            header = fh.readline()
            if not header.strip():
                raise ValueError(f"trace file {path} is empty: no header row")
            names = next(csv.reader([header]))
            first = fh.readline()
            while first.isspace():  # blank lines before the first row
                first = fh.readline()
            if first:
                try:
                    data = np.loadtxt(chain([first], fh), delimiter=",", comments=None,
                                      ndmin=2)
                except ValueError as exc:
                    raise ValueError(f"trace file {path}: {exc}") from exc
                if data.shape[1] != len(names):
                    raise ValueError(f"trace file {path} has rows of {data.shape[1]} cells "
                                     f"under a header of {len(names)}")
            else:
                data = np.zeros((0, len(names)))
        columns = {}
        for i, name in enumerate(names):
            if not name.startswith("xi_"):
                columns[name] = data[:, i]
        missing = set(TRACE_COLUMNS) - set(columns)
        if missing:
            raise ValueError(f"trace file missing columns {sorted(missing)}")
        xi_cols = [i for i, n in enumerate(names) if n.startswith("xi_")]
        xi = data[:, xi_cols] if xi_cols else None
        return cls(columns=columns, xi=xi)


_CSV_BLOCK = 256  # rows formatted at once: bounds the strings held to a few hundred kB


def _fmt_column(col: np.ndarray) -> list[str]:
    """A column's cells as CSV text: `repr` for an integral value below 1e15 in
    magnitude (so 3.0, not 3), `format(x, ".12g")` for every other, which
    writes a non-finite cell as nan, inf or -inf."""
    col = np.asarray(col, dtype=float)
    xs = col.tolist()
    out = list(map(format, xs, repeat(".12g")))
    for i in np.flatnonzero((col == np.trunc(col)) & (np.abs(col) < 1e15)).tolist():
        out[i] = repr(xs[i])
    return out


class OriginalController:
    """Stateful wrapper around the rational controller step."""

    def __init__(self, pam: PamParams, gains: Gains):
        self.pam = pam
        self.gains = gains
        self.state = ControllerState()

    def step(self, zin: ControllerInput) -> tuple[float, float, tuple[bool, bool]]:
        self.state, u1, u2, flags = original_step(self.state, zin, self.gains, self.pam)
        return u1, u2, flags


class MatrixController:
    """Plaintext psi = Phi xi controller (the approximated path).

    `step` builds xi, splits psi into the next state and the valve commands,
    and clamps them; a subclass changes only `psi`, how psi is computed.
    """

    def __init__(self, phi: np.ndarray):
        self.phi = np.asarray(phi, dtype=float)
        check_finite(self.phi)
        self.state = ControllerState()
        self.last_xi: np.ndarray | None = None
        self.last_psi: np.ndarray | None = None

    def psi(self, xi: np.ndarray) -> np.ndarray:
        """psi = Phi xi for one xi."""
        return poly_step(self.phi, xi)

    def step(self, zin: ControllerInput) -> tuple[float, float, tuple[bool, bool]]:
        xi = build_xi(zin, self.state)
        psi = self.psi(xi)
        self.last_xi, self.last_psi = xi, psi
        self.state, u1, u2 = split_psi(psi)
        u1c, f1 = clamp_u(u1)
        u2c, f2 = clamp_u(u2)
        return u1c, u2c, (f1, f2)


class LocalEvaluator:
    """`DeviceSession`'s two calls in-process, on Enc(Phi) and no key; `eval` runs `enc_eval`."""

    def __init__(self, enc_phi: list[list[Ciphertext]], p: int):
        self.enc_phi, self.p = enc_phi, p

    def fetch_enc_phi(self) -> list[list[Ciphertext]]:
        return self.enc_phi

    def eval(self, enc_xi: list[Ciphertext]) -> list[list[int]]:
        return enc_eval(self.enc_phi, enc_xi, self.p)


class EncryptedController(MatrixController):
    """The matrix controller with psi = Phi xi evaluated under encryption.

    The device side holds the keys. The products come from `session`, an
    evaluator holding only Enc(Phi): a DeviceSession to a ControllerService
    or, by default, a `LocalEvaluator` on an Enc(Phi) drawn from the
    controller's nonce stream before any step's pad. Enc(Phi) is fetched
    once, into `crypto.PhiMasks`, which refuses an evaluator holding another
    Phi. A step checks xi against its fixed-point bounds, encrypts it, sends
    it to `session.eval` and recovers psi with Dec+; `last_plain_psi` is the
    plaintext Phi xi on the same xi. No modular power runs in a step:
    between steps `refill` draws its pads off `keys.tables`, the key's own
    fixed-base tables, and prepares its Dec+; no pad serves two steps. A c2 outside
    [1, p), or a DeviceSession reply with another sequence number, raises
    `crypto.ReplyIntegrityError`; a stale or altered c2 almost surely
    decodes outside its bound, `crypto.DecodeOverflowError`.
    """

    def __init__(self, phi: np.ndarray, keys: ElGamalKeys,
                 nonce_seed: int | None = None,
                 session: DeviceSession | None = None):
        if keys.s is None:
            raise ValueError("the device side needs the secret key for Dec+")
        super().__init__(phi)
        self.keys = keys
        self.encoding = EncodingParams()
        # lists, not arrays: Dec+ reads them one entry at a time
        self.bounds = check_overflow_guard(self.encoding, self.phi, keys.p).tolist()
        self.rng = Drbg(nonce_seed)
        if session is None:  # the evaluator in-process, on an Enc(Phi) of the controller's own
            session = LocalEvaluator(enc_matrix(self.phi, self.encoding, keys, self.rng), keys.p)
        self.session = session
        self.masks = PhiMasks(session.fetch_enc_phi(), self.phi.tolist(), self.encoding, keys)
        # the next step's pads and prepared Dec+, until it takes them
        self._ready: tuple[list[Pad], list[list[tuple[int, int]]]] | None = None
        self.last_plain_psi: np.ndarray | None = None

    def refill(self) -> None:
        """Offline work: the next step's nonce pads and prepared Dec+, unless unused ones wait."""
        if self._ready is None:
            pads = draw_pads(18, self.keys, self.rng)
            self._ready = pads, self.masks.prepare(pads, self.keys.p)

    def psi(self, xi: np.ndarray) -> np.ndarray:
        xs = xi.tolist()
        for j, (v, bound) in enumerate(zip(xs, self.encoding.xi_bounds)):
            if not abs(v) <= bound:  # a NaN fails this test too
                raise OverflowError(
                    f"xi_{j+1} = {v!r} is outside its declared bound {bound!r}")
        if self._ready is None:  # no refill since the last step
            self.refill()
        (pads, prepared), self._ready = self._ready, None  # no pad serves two steps
        enc_xi = enc_vector(xs, self.encoding.delta_xi, self.keys, pads=pads)
        psi = np.array(dec_plus(self.session.eval(enc_xi), self.encoding, self.keys,
                                self.bounds, prepared=prepared))
        self.last_plain_psi = poly_step(self.phi, xi)
        return psi


def make_controller(mode: str, *, pam: PamParams, gains: Gains, phi: np.ndarray | None,
                    keys: ElGamalKeys | None, nonce_seed: int | None,
                    session: DeviceSession | None):
    if mode == "original":
        return OriginalController(pam, gains)
    if mode == "approx":
        if phi is None:
            raise ValueError("approx mode needs a Phi matrix")
        return MatrixController(phi)
    if mode == "encrypted":
        if phi is None or keys is None:
            raise ValueError("encrypted mode needs a Phi matrix and keys")
        return EncryptedController(phi, keys, nonce_seed, session)
    raise ValueError(f"unknown mode {mode!r}")


def run_closed_loop(
    mode: str,
    profile: ReferenceProfile,
    *,
    pam: PamParams = DEFAULT_PAM,
    plant: SurrogatePlantParams = DEFAULT_PLANT,
    gains: Gains = DEFAULT_GAINS,
    phi: np.ndarray | None = None,
    keys: ElGamalKeys | None = None,
    nonce_seed: int | None = None,
    session: DeviceSession | None = None,
    warmup: float = 10.0,
    noise_theta: float = 0.0,
    noise_pressure: float = 0.0,
    noise_seed: int = 0,
    measure_time: bool = False,
    record_xi: bool = False,
    anti_windup: bool = False,
    on_step: Callable[[int, object], None] | None = None,
) -> SimTrace:
    """Run one closed-loop session and return its trace.

    Warm-up holds 5.5 V with the controller off; the trace covers only the
    control phase (step k=0 is the first controller invocation). The plant
    advances by one `plant_step` call for the whole warm-up and one per
    control period, `plant.substeps` substeps per period. The run's sensor
    noise is drawn once, before the first step, by `_sensor_noise`, the same
    values a per-step draw would give. Per-step compute time covers the
    controller call only and is written as 0.0 unless `measure_time` is
    set, keeping default traces byte-reproducible.
    An encrypted controller's offline refill runs before each step's sensor
    sample, outside that time; with `measure_time` its total is the trace's
    `offline_time`. A non-finite measured angle, pressure or stiffness
    raises ValueError naming the sensor and the step, before the controller
    sees it.
    Nonces are OS-random unless `nonce_seed` is set (the trace is the same
    either way: decryption is exact); `record_xi` needs approx or encrypted.
    Each step's trace values go into one buffer of doubles, which becomes
    the trace's columns when the run ends.
    """
    if record_xi and mode == "original":
        raise ValueError("record_xi needs a matrix controller: mode approx or encrypted")
    ts = gains.ts
    n_steps = int(round(profile.duration / ts))
    controller = make_controller(mode, pam=pam, gains=gains, phi=phi, keys=keys,
                                 nonce_seed=nonce_seed, session=session)
    encrypted = isinstance(controller, EncryptedController)
    offline_time = 0.0

    substeps = plant.substeps
    sub_dt = ts / substeps
    state = plant_step(PlantState(), WARMUP_VOLTAGE, WARMUP_VOLTAGE, plant, pam, sub_dt,
                       int(round(warmup / ts)) * substeps)
    theta, theta_dot, P1, P2 = state

    rows = array("d")  # each step's values in TRACE_COLUMNS order
    xi_log = np.zeros((n_steps, 18)) if record_xi else None

    for k, (d_theta, d_p1, d_p2) in enumerate(
            _sensor_noise(n_steps, noise_theta, noise_pressure, noise_seed)):
        if encrypted:  # offline work: after the previous step, before this sensor sample
            t0 = time.perf_counter()
            controller.refill()
            offline_time += time.perf_counter() - t0
        t = k * ts
        th_ref_deg, kp_ref = profile.lookup(t)

        theta_meas, p1_meas, p2_meas = theta + d_theta, P1 + d_p1, P2 + d_p2
        if not (math.isfinite(theta_meas) and math.isfinite(p1_meas)
                and math.isfinite(p2_meas)):
            _refuse_sensors(k, t, theta=theta_meas, p1=p1_meas, p2=p2_meas)
        kp_meas = measured_stiffness(PlantState(theta_meas, theta_dot, p1_meas, p2_meas), pam)
        if not math.isfinite(kp_meas):
            _refuse_sensors(k, t, k_p=kp_meas)

        zin = ControllerInput(p1_meas, p2_meas, theta_meas, math.radians(th_ref_deg), kp_ref)
        prev_state = controller.state
        t0 = time.perf_counter()
        u1, u2, (c1, c2) = controller.step(zin)
        elapsed = time.perf_counter() - t0

        if anti_windup:
            # conditional integration: hold a force integrator while its valve clamps
            if c1 or c2:
                controller.state = ControllerState(
                    controller.state.x_theta,
                    prev_state.x_f1 if c1 else controller.state.x_f1,
                    prev_state.x_f2 if c2 else controller.state.x_f2,
                )

        flags = (FLAG_U1_CLAMPED if c1 else 0) | (FLAG_U2_CLAMPED if c2 else 0)
        if measure_time and elapsed > ts:
            flags |= FLAG_DEADLINE_OVERRUN
        state = plant_step(state, u1, u2, plant, pam, sub_dt, substeps)
        theta, theta_dot, P1, P2 = state
        if abs(theta) >= THETA_LIMIT:
            flags |= FLAG_THETA_STOP
        if P1 in (PRESSURE_MIN, PRESSURE_MAX) or P2 in (PRESSURE_MIN, PRESSURE_MAX):
            flags |= FLAG_PRESSURE_LIMIT

        theta_deg = math.degrees(theta_meas)
        rows.extend((t, th_ref_deg, kp_ref, theta_deg, kp_meas, u1, u2, p1_meas, p2_meas,
                     th_ref_deg - theta_deg, kp_ref - kp_meas,
                     elapsed if measure_time else 0.0, flags))
        if xi_log is not None:
            xi_log[k] = controller.last_xi
        if on_step is not None:
            on_step(k, controller)

    data = np.frombuffer(rows).reshape(n_steps, len(TRACE_COLUMNS))  # no copy
    return SimTrace(columns=dict(zip(TRACE_COLUMNS, data.T)), xi=xi_log,
                    offline_time=offline_time if measure_time else 0.0)


def _sensor_noise(n_steps: int, noise_theta: float, noise_pressure: float,
                  noise_seed: int) -> Iterator[tuple[float, float, float]]:
    """Each step's (theta, p1, p2) sensor-noise offsets, drawn before the run.

    The draws are the ones a `Generator.normal(0.0, scale)` call per noisy
    sensor and step would take, in that order: theta when `noise_theta` is
    set, then p1 and p2 when `noise_pressure` is. Each is formed as `normal`
    forms it, `0.0 + scale * z`, so it is the same double. A sensor without
    noise gets 0.0, which changes no reading: none is -0.0, as the plant
    starts at +0.0 and clamps its pressures to [PRESSURE_MIN, PRESSURE_MAX].
    The offsets are Python floats, three lists zipped: the controllers run
    faster on them than on numpy scalars.
    """
    scales = (noise_theta, noise_pressure, noise_pressure)
    for name, scale in (("noise_theta", noise_theta), ("noise_pressure", noise_pressure)):
        if scale < 0.0:
            raise ValueError(f"{name} = {scale!r} is negative")
    offsets = np.zeros((n_steps, 3))
    noisy = [j for j, scale in enumerate(scales) if scale]
    if noisy:
        z = np.random.default_rng(noise_seed).standard_normal((n_steps, len(noisy)))
        offsets[:, noisy] = 0.0 + np.array(scales)[noisy] * z
    return zip(*offsets.T.tolist())


def _refuse_sensors(k: int, t: float, **readings: float) -> None:
    """Raise ValueError naming the first non-finite sensor reading and the step."""
    for name, v in readings.items():
        if not math.isfinite(v):
            raise ValueError(f"sensor {name} = {v!r} at step {k} (t = {t:g} s) is not finite")


def l2_score(z: Sequence[float], z_ref: Sequence[float], window: MetricWindow) -> float:
    """Root of the summed squared tracking error over the closed window [k0, k1].

    The sum runs left to right in index order so the value is bit-identical
    to a naive reference loop.
    """
    z = np.asarray(z, dtype=float)
    z_ref = np.asarray(z_ref, dtype=float)
    if not (0 <= window.k0 <= window.k1 < min(len(z), len(z_ref))):
        raise ValueError(f"window {window} outside sequence bounds")
    total = 0.0
    for k in range(window.k0, window.k1 + 1):
        d = float(z[k]) - float(z_ref[k])
        total += d * d
    return math.sqrt(total)


@dataclass(frozen=True)
class ReportRow:
    label: str
    window: MetricWindow
    signal: str  # "theta" or "k_p"
    gamma_mean: float
    gamma_min: float
    gamma_max: float
    ref_value: float
    tracked_mean: float
    tracking_pct: float       # 100*(1 - |mean - ref|/|ref|), the headline ratio
    mean_abs_err_pct: float   # 100*mean|z - ref|/|ref|


@dataclass(frozen=True)
class CompareReport:
    rows: tuple[ReportRow, ...]

    def worst_tracking_pct(self) -> float:
        return min(r.tracking_pct for r in self.rows)

    def to_text(self) -> str:
        head = (f"{'label':<10} {'window':<12} {'signal':<6} {'gamma(mean)':>12} "
                f"{'gamma(min)':>11} {'gamma(max)':>11} {'track%':>8} {'mae%':>7}")
        lines = [head, "-" * len(head)]
        for r in self.rows:
            lines.append(
                f"{r.label:<10} [{r.window.k0},{r.window.k1}]".ljust(23)
                + f" {r.signal:<6} {r.gamma_mean:>12.6g} {r.gamma_min:>11.6g} "
                f"{r.gamma_max:>11.6g} {r.tracking_pct:>8.2f} {r.mean_abs_err_pct:>7.3f}")
        lines.append(f"worst tracked-to-reference ratio: {self.worst_tracking_pct():.2f} %")
        return "\n".join(lines)

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["label", "k0", "k1", "signal", "gamma_mean", "gamma_min",
                             "gamma_max", "ref_value", "tracked_mean",
                             "tracking_pct", "mean_abs_err_pct"])
            for r in self.rows:
                writer.writerow([r.label, r.window.k0, r.window.k1, r.signal,
                                 *(format(x, ".12g") for x in (
                                     r.gamma_mean, r.gamma_min, r.gamma_max, r.ref_value,
                                     r.tracked_mean, r.tracking_pct, r.mean_abs_err_pct))])


_SIGNALS = {"theta": ("theta_deg", "theta_ref_deg"), "k_p": ("k_p", "kp_ref")}


def window_tracking_stats(trace: SimTrace, window: MetricWindow) -> dict[str, dict[str, float]]:
    """Per-signal gamma, reference, tracked mean, and error percentages for one window.

    A window that does not lie inside the trace raises ValueError naming it.
    """
    if not 0 <= window.k0 <= window.k1 < len(trace):
        raise ValueError(f"window {window.k0}:{window.k1} is outside the trace's "
                         f"{len(trace)} steps")
    out = {}
    for signal, (col, ref_col) in _SIGNALS.items():
        z = trace[col][window.k0:window.k1 + 1]
        ref = trace[ref_col][window.k0:window.k1 + 1]
        ref_val = float(ref[0])
        if not np.all(ref == ref_val):
            raise ValueError("metric window spans a reference step")
        gamma = l2_score(trace[col], trace[ref_col], window)
        tracked = float(np.mean(z))
        out[signal] = {
            "gamma": gamma,
            "ref": ref_val,
            "tracked_mean": tracked,
            "tracking_pct": 100.0 * (1.0 - abs(tracked - ref_val) / abs(ref_val)),
            "mean_abs_err_pct": 100.0 * float(np.mean(np.abs(z - ref))) / abs(ref_val),
        }
    return out


def compare_report(traces: Mapping[str, Sequence[SimTrace]],
                   windows: Sequence[MetricWindow] = CANONICAL_WINDOWS) -> CompareReport:
    """Score a labeled set of runs; run-to-run spread shows up as gamma min/max."""
    ref_cols = None
    for label, runs in traces.items():
        for tr in runs:
            cols = (tuple(tr["theta_ref_deg"]), tuple(tr["kp_ref"]))
            if ref_cols is None:
                ref_cols = cols
            elif cols != ref_cols:
                raise ValueError(f"trace under label {label!r} has a different profile")
    rows = []
    for label, runs in traces.items():
        for window in windows:
            per_run = [window_tracking_stats(tr, window) for tr in runs]
            for signal in _SIGNALS:
                stats = [s[signal] for s in per_run]
                gammas = [s["gamma"] for s in stats]
                rows.append(ReportRow(
                    label=label,
                    window=window,
                    signal=signal,
                    gamma_mean=float(np.mean(gammas)),
                    gamma_min=float(np.min(gammas)),
                    gamma_max=float(np.max(gammas)),
                    ref_value=stats[0]["ref"],
                    tracked_mean=float(np.mean([s["tracked_mean"] for s in stats])),
                    tracking_pct=float(np.mean([s["tracking_pct"] for s in stats])),
                    mean_abs_err_pct=float(np.mean([s["mean_abs_err_pct"] for s in stats])),
                ))
    return CompareReport(rows=tuple(rows))
