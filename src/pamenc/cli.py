"""Command-line entry point.

Subcommands: keygen, fit, build-phi, simulate, serve, evaluate, compare.
Exit codes: 0 success, 2 usage error (argparse), 3 missing/unreadable file,
4 invalid option combination, 5 runtime failure (including a timeout, a
closed connection, a protocol error, a service whose Enc(Phi) does not
decrypt to the device's Phi, a reply with another sequence number than its
request, a reply whose c2 is outside [1, p) or decodes outside its bound,
a non-finite sensor value, an xi entry outside its fixed-point bound, or a
trace file that is empty, malformed or shorter than a metric window).

Environment overrides: PAMENC_OUT_DIR prefixes relative output paths,
PAMENC_PORT overrides the service port.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time
from pathlib import Path

import numpy as np

from . import crypto, harness, params, polyctrl, polyfit
from .protocol import ProtocolError
from .service import DEFAULT_TIMEOUT, ControllerService, DeviceSession

EXIT_OK = 0
EXIT_MISSING_FILE = 3
EXIT_BAD_COMBINATION = 4
EXIT_RUNTIME = 5


class MissingFileError(Exception):
    pass


class BadCombinationError(Exception):
    pass


def _out_path(p: str | Path) -> Path:
    p = Path(p)
    base = os.environ.get("PAMENC_OUT_DIR")
    if base and not p.is_absolute():
        p = Path(base) / p
        p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _in_path(p: str | Path) -> Path:
    p = Path(p)
    if not p.exists():
        raise MissingFileError(f"file not found: {p}")
    return p


def _load_pam(args) -> params.PamParams:
    if getattr(args, "params", None):
        return params.load_pam_params(_in_path(args.params))
    return params.DEFAULT_PAM


def _load_plant(args, pam: params.PamParams) -> params.SurrogatePlantParams:
    plant = params.DEFAULT_PLANT
    if getattr(args, "plant", None):
        plant = params.load_plant_params(_in_path(args.plant))
    if getattr(args, "load_mass", 0.0):
        plant = params.with_load_mass(plant, args.load_mass, pam)
    return plant


def _load_gains(args, default: str) -> params.Gains:
    name = getattr(args, "gains", None) or default
    if name not in params.GAIN_PRESETS:
        name = _in_path(name)
    return params.load_gains(name)


def cmd_keygen(args) -> int:
    keys = crypto.keygen(bits=args.bits, seed=args.seed)
    pub, sec = crypto.save_keys(_out_path(args.out), keys)
    print(f"wrote {pub} and {sec} (p has {keys.bits} bits)")
    return EXIT_OK


def cmd_fit(args) -> int:
    pam = _load_pam(args)
    spec = polyfit.FeatureSpec(density=args.grid)
    coeffs, report = polyfit.fit_controller_coeffs(
        pam, spec, lam=args.lam, threshold=args.threshold)
    polyfit.save_coeffs(_out_path(args.out), coeffs)
    if args.dump_dataset:
        polyfit.save_dataset(_out_path(args.dump_dataset), polyfit.sample_grid(spec, pam))
    for t in range(1, 6):
        dropped = ", ".join(report.dropped[t]) or "-"
        print(f"f{t}: max scaled err {report.max_scaled_err[t]*100:.3f} % "
              f"(sweeps {report.sweeps[t]}, dropped: {dropped})")
    print(f"wrote {_out_path(args.out)}")
    return EXIT_OK


def cmd_build_phi(args) -> int:
    coeffs = polyfit.load_coeffs(_in_path(args.coeffs))
    pam = _load_pam(args)
    gains = _load_gains(args, default="table2")
    phi = polyctrl.build_phi(coeffs, pam, gains)
    polyctrl.save_phi(_out_path(args.out), phi)
    print(f"wrote {_out_path(args.out)} (5x18)")
    return EXIT_OK


def _phi_for_run(args, pam, gains):
    if getattr(args, "phi", None):
        return polyctrl.load_phi(_in_path(args.phi))
    if getattr(args, "coeffs", None):
        coeffs = polyfit.load_coeffs(_in_path(args.coeffs))
    else:
        coeffs, _ = polyfit.fit_controller_coeffs(pam)
    return polyctrl.build_phi(coeffs, pam, gains)


def cmd_simulate(args) -> int:
    if args.verbose_xi and args.mode == "original":
        raise BadCombinationError("--verbose-xi needs --mode approx or encrypted")
    if args.connect and args.mode != "encrypted":
        raise BadCombinationError("--connect needs --mode encrypted")
    pam = _load_pam(args)
    plant = _load_plant(args, pam)
    gains = _load_gains(args, default="surrogate")
    profile = harness.resolve_profile(
        args.profile if args.profile in harness.PROFILES else _in_path(args.profile))

    phi = None
    keys = None
    if args.mode in ("approx", "encrypted"):
        phi = _phi_for_run(args, pam, gains)
    if args.mode == "encrypted":
        if not args.keys:
            raise BadCombinationError("--mode encrypted requires --keys")
        keys = crypto.load_keys(_in_path(args.keys))
        if keys.s is None:
            raise BadCombinationError("encrypted simulation needs the secret key file (.sec)")

    session = None
    try:
        if args.connect:
            host, _, port = args.connect.rpartition(":")
            port = int(os.environ.get("PAMENC_PORT", port))
            session = DeviceSession((host or "127.0.0.1", port), timeout=args.net_timeout)
        trace = harness.run_closed_loop(
            args.mode, profile,
            pam=pam, plant=plant, gains=gains, phi=phi, keys=keys,
            session=session,
            warmup=args.warmup,
            noise_theta=args.noise_theta, noise_pressure=args.noise_pressure,
            noise_seed=args.seed,
            measure_time=args.measure_time, record_xi=args.verbose_xi,
            anti_windup=args.anti_windup)
    finally:
        if session is not None:
            session.close()

    trace.to_csv(_out_path(args.out))
    if args.measure_time:
        ct = trace["compute_time"] * 1e3
        overruns = int(np.count_nonzero(trace["clamp_flags"].astype(int)
                                        & harness.FLAG_DEADLINE_OVERRUN))
        p50, p99 = np.percentile(ct, [50, 99])
        print(f"online step: p50 {p50:.3f} ms, p99 {p99:.3f} ms, max {ct.max():.3f} ms; "
              f"{overruns} deadline overruns (flag 16)")
        if args.mode == "encrypted":
            print(f"offline refill: mean {trace.offline_time / len(trace) * 1e3:.3f} ms per step")
    print(f"wrote {_out_path(args.out)} ({len(trace)} steps)")
    return EXIT_OK


def _enc_phi(path: str, keys: crypto.ElGamalKeys):
    """Enc(Phi) of the Phi file at `path`, OS-random nonces; the plaintext dies on return."""
    phi, encoding = polyctrl.load_phi(_in_path(path)), crypto.EncodingParams()
    crypto.check_overflow_guard(encoding, phi, keys.p)
    return crypto.enc_matrix(phi, encoding, keys, crypto.Drbg())


def cmd_serve(args) -> int:
    keys = crypto.load_keys(_in_path(args.pubkey))
    if keys.s is not None:
        raise BadCombinationError("key file holds the secret exponent; serve takes the .pub file")
    port = int(os.environ.get("PAMENC_PORT", args.port))
    service = ControllerService(_enc_phi(args.phi, keys), keys.p,
                                host=args.bind, port=port)
    service.start()
    try:
        # Both signals end the wait, so stop() runs; SIGINT also when it was ignored at start.
        for sig in (signal.SIGINT, signal.SIGTERM):
            signal.signal(sig, signal.default_int_handler)
        print(f"controller service on {service.address[0]}:{service.address[1]} (holds only "
              f"Enc(Phi), encrypted at start-up from {args.phi}, and the public key; "
              "SIGINT or SIGTERM stops it)", flush=True)
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        service.stop()
    return EXIT_OK


def _parse_windows(spec: str) -> list[harness.MetricWindow]:
    """The --windows value: 'canonical' or k0:k1[,k0:k1...]; a bad part is a usage error."""
    if spec == "canonical":
        return list(harness.CANONICAL_WINDOWS)
    windows = []
    for part in spec.split(","):
        k0, _, k1 = part.partition(":")
        try:
            window = harness.MetricWindow(int(k0), int(k1))
        except ValueError:  # also a part without ':', whose k1 is ''
            window = None
        if window is None or not 0 <= window.k0 <= window.k1:
            raise argparse.ArgumentTypeError(
                f"bad window {part!r}: expected k0:k1, integers with 0 <= k0 <= k1")
        windows.append(window)
    return windows


def _report(traces: dict[str, list[harness.SimTrace]], args) -> int:
    report = harness.compare_report(traces, args.windows)
    print(report.to_text())
    if args.out:
        report.to_csv(_out_path(args.out))
        print(f"wrote {_out_path(args.out)}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    return _report({args.label: [harness.SimTrace.from_csv(_in_path(args.trace))]}, args)


def cmd_compare(args) -> int:
    if args.labels and len(args.labels) != len(args.traces):
        raise BadCombinationError("--labels must match the number of traces")
    labels = args.labels or [f"run{i}" for i in range(len(args.traces))]
    grouped: dict[str, list[harness.SimTrace]] = {}
    for label, path in zip(labels, args.traces):
        grouped.setdefault(label, []).append(harness.SimTrace.from_csv(_in_path(path)))
    return _report(grouped, args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pamenc",
        description="Encrypted simultaneous angle-stiffness control of a PAM actuator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate an ElGamal key pair over a safe prime")
    p.add_argument("--bits", type=int, default=64)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="key", help="output prefix (.pub/.sec)")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("fit", help="fit the polynomial controller coefficients")
    p.add_argument("--lambda", dest="lam", type=float, default=polyfit.DEFAULT_LAMBDA)
    p.add_argument("--grid", type=int, default=21)
    p.add_argument("--threshold", type=float, default=1e-3)
    p.add_argument("--params", help="PAM parameter file (default: built-in)")
    p.add_argument("--dump-dataset", help="also write the training grid CSV")
    p.add_argument("--out", default="coeffs.csv")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("build-phi", help="assemble the 5x18 controller matrix")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--params", help="PAM parameter file (default: built-in)")
    p.add_argument("--gains", help="preset name (sim/table2/surrogate) or gains file",
                   default=None)
    p.add_argument("--out", default="phi.csv")
    p.set_defaults(func=cmd_build_phi)

    p = sub.add_parser("simulate", help="run a closed-loop session")
    p.add_argument("--mode", choices=("original", "approx", "encrypted"), required=True)
    p.add_argument("--profile", default="ref2", help="ref1, ref2, or a profile CSV")
    p.add_argument("--params")
    p.add_argument("--plant")
    p.add_argument("--gains", default=None)
    p.add_argument("--coeffs", help="coefficient CSV (approx/encrypted; default: fit)")
    p.add_argument("--phi", help="prebuilt Phi CSV (overrides --coeffs)")
    p.add_argument("--keys", help="key file; encrypted mode needs the .sec file")
    p.add_argument("--connect", metavar="HOST:PORT",
                   help="route encrypted evaluation through a running service")
    p.add_argument("--net-timeout", type=float, default=DEFAULT_TIMEOUT)
    p.add_argument("--seed", type=int, default=0, help="sensor-noise seed")
    p.add_argument("--warmup", type=float, default=10.0)
    p.add_argument("--load-mass", type=float, default=0.0, help="hanging mass in kg")
    p.add_argument("--noise-theta", type=float, default=0.0, help="angle noise std, rad")
    p.add_argument("--noise-pressure", type=float, default=0.0, help="pressure noise std, kPa")
    p.add_argument("--measure-time", action="store_true",
                   help="record wall-clock controller time (breaks byte-reproducibility)")
    p.add_argument("--anti-windup", action="store_true",
                   help="hold force integrators while their valve commands clamp")
    p.add_argument("--verbose-xi", action="store_true", help="append xi columns (approx/encrypted)")
    p.add_argument("--out", default="trace.csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("serve", help="run the encrypted-controller service")
    p.add_argument("--phi", required=True)
    p.add_argument("--pubkey", required=True, help="public key file (.pub)")
    p.add_argument("--bind", default="127.0.0.1")
    p.add_argument("--port", type=int, default=4650)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("evaluate", help="score one trace over metric windows")
    p.add_argument("--trace", required=True)
    p.add_argument("--windows", type=_parse_windows, default="canonical",
                   help="'canonical' or k0:k1[,k0:k1...]")
    p.add_argument("--label", default="run")
    p.add_argument("--out", help="also write the report CSV")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="score several labeled traces side by side")
    p.add_argument("--traces", nargs="+", required=True)
    p.add_argument("--labels", nargs="*", default=None)
    p.add_argument("--windows", type=_parse_windows, default="canonical",
                   help="'canonical' or k0:k1[,k0:k1...]")
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MissingFileError as exc:
        print(f"pamenc: {exc}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except BadCombinationError as exc:
        print(f"pamenc: {exc}", file=sys.stderr)
        return EXIT_BAD_COMBINATION
    except (ValueError, OSError, OverflowError, RuntimeError, ProtocolError) as exc:
        print(f"pamenc: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
