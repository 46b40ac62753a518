"""Profiles, metric windows, scoring, traces, and closed-loop behavior."""

import builtins
import contextlib
import csv
import math
import re

import numpy as np
import pytest

from pamenc import crypto, harness, pam, protocol, service
from pamenc import (
    CANONICAL_WINDOWS,
    DEFAULT_GAINS,
    DEFAULT_PAM,
    DEFAULT_PLANT,
    REF1,
    REF2,
    ControllerInput,
    ControllerService,
    ControllerState,
    DeviceSession,
    Drbg,
    EncodingParams,
    MetricWindow,
    ReferenceProfile,
    SimTrace,
    build_phi,
    compare_report,
    enc_matrix,
    fit_controller_coeffs,
    keygen,
    l2_score,
    run_closed_loop,
    window_tracking_stats,
)
from pamenc.crypto import (DecodeOverflowError, ElGamalKeys, ReplyIntegrityError,
                           find_session_key)
from pamenc.harness import EncryptedController, LocalEvaluator, load_profile


@pytest.fixture(scope="module")
def phi():
    coeffs, _ = fit_controller_coeffs(DEFAULT_PAM)
    return build_phi(coeffs, DEFAULT_PAM, DEFAULT_GAINS)


@pytest.fixture(scope="module")
def keys():
    return keygen(bits=64, seed=2024)


@pytest.fixture(scope="module")
def short_profile():
    return ReferenceProfile(((0.0, 2.0, 5.0, 6.0),))


class TestProfiles:
    def test_canonical_shapes(self):
        assert REF1.duration == 45.0 and REF2.duration == 45.0
        assert REF2.lookup(0.0) == (5.0, 9.0)
        assert REF2.lookup(14.999) == (5.0, 9.0)
        assert REF2.lookup(15.0) == (15.0, 6.0)
        assert REF2.lookup(44.99) == (10.0, 7.0)

    def test_gap_rejected(self):
        with pytest.raises(ValueError):
            ReferenceProfile(((0.0, 10.0, 5.0, 6.0), (11.0, 20.0, 5.0, 6.0)))

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("start,end,theta_ref_deg,kp_ref\n0,10,5,9\n10,20,10,6\n")
        prof = load_profile(path)
        assert prof.duration == 20.0
        assert prof.lookup(12.0) == (10.0, 6.0)


class TestWindows:
    def test_canonical_windows_are_final_5s(self):
        # 15 s segments at 20 ms -> 750 samples; windows are the last 250 of each
        for i, w in enumerate(CANONICAL_WINDOWS):
            seg_end = (i + 1) * 750
            assert w.k1 == seg_end - 1
            assert w.k0 == seg_end - 250
            assert w.k1 - w.k0 + 1 == 250


class TestL2Score:
    def test_zero_on_exact_tracking(self):
        z = np.linspace(0, 1, 100)
        assert l2_score(z, z, MetricWindow(10, 50)) == 0.0

    def test_constant_error(self):
        z = np.full(300, 2.0)
        ref = np.full(300, 1.5)
        assert l2_score(z, ref, MetricWindow(0, 249)) == pytest.approx(0.5 * math.sqrt(250))

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=400)
        ref = rng.normal(size=400)
        w = MetricWindow(97, 346)
        acc = 0.0
        for k in range(w.k0, w.k1 + 1):
            acc += (z[k] - ref[k]) ** 2
        assert l2_score(z, ref, w) == math.sqrt(acc)

    def test_window_bounds_checked(self):
        with pytest.raises(ValueError):
            l2_score(np.zeros(10), np.zeros(10), MetricWindow(5, 10))


class TestClosedLoop:
    def test_zero_length_horizon(self):
        trace = run_closed_loop("original", ReferenceProfile(()))
        assert len(trace) == 0

    def test_original_short_run_structure(self, short_profile):
        trace = run_closed_loop("original", short_profile, warmup=2.0)
        assert len(trace) == 100
        assert np.all(np.diff(trace["time"]) == pytest.approx(DEFAULT_GAINS.ts))
        assert np.all(trace["u1"] >= 0.0) and np.all(trace["u1"] <= 10.0)
        assert trace["compute_time"].sum() == 0.0  # timing off by default

    @pytest.mark.parametrize("mode", ["approx", "encrypted"])
    def test_non_finite_phi_is_named(self, mode, phi, keys, short_profile):
        # a NaN entry used to run approx to the end with u1 = nan on every step
        bad = phi.copy()
        bad[3][5] = math.nan
        with pytest.raises(ValueError, match=r"Phi\[4\]\[6\] = nan is not finite"):
            run_closed_loop(mode, short_profile, phi=bad, keys=keys, warmup=2.0)

    def test_modes_require_artifacts(self, short_profile):
        with pytest.raises(ValueError):
            run_closed_loop("approx", short_profile)
        with pytest.raises(ValueError):
            run_closed_loop("encrypted", short_profile)
        with pytest.raises(ValueError):
            run_closed_loop("martian", short_profile)

    def test_deterministic_trace(self, short_profile, phi):
        a = run_closed_loop("approx", short_profile, phi=phi, warmup=2.0)
        b = run_closed_loop("approx", short_profile, phi=phi, warmup=2.0)
        for col in a.columns:
            assert np.array_equal(a[col], b[col])

    def test_trace_csv_roundtrip(self, short_profile, tmp_path):
        trace = run_closed_loop("original", short_profile, warmup=2.0, record_xi=False)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        again = SimTrace.from_csv(path)
        for col in trace.columns:
            assert again[col] == pytest.approx(trace[col], rel=1e-11, abs=1e-14)

    def test_trace_csv_byte_identical(self, short_profile, phi, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_closed_loop("approx", short_profile, phi=phi, warmup=2.0).to_csv(p1)
        run_closed_loop("approx", short_profile, phi=phi, warmup=2.0).to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_verbose_xi_recorded(self, short_profile, phi):
        trace = run_closed_loop("approx", short_profile, phi=phi, warmup=2.0, record_xi=True)
        assert trace.xi.shape == (100, 18)
        assert np.all(trace.xi[:, 15] == 1.0)

    def test_verbose_xi_needs_matrix_controller(self, short_profile):
        with pytest.raises(ValueError, match="record_xi"):
            run_closed_loop("original", short_profile, warmup=2.0, record_xi=True)

    def test_approx_equals_encrypted_to_quantization(self, short_profile, phi, keys):
        ta = run_closed_loop("approx", short_profile, phi=phi, warmup=2.0)
        te = run_closed_loop("encrypted", short_profile, phi=phi, keys=keys, warmup=2.0)
        assert np.max(np.abs(ta["u1"] - te["u1"])) < 1e-3
        assert np.max(np.abs(ta["theta_deg"] - te["theta_deg"])) < 1e-3

    def test_nonce_seed_does_not_change_plaintext_path(self, short_profile, phi, keys):
        a = run_closed_loop("encrypted", short_profile, phi=phi, keys=keys,
                            nonce_seed=1, warmup=2.0)
        b = run_closed_loop("encrypted", short_profile, phi=phi, keys=keys,
                            nonce_seed=2, warmup=2.0)
        # nonces only randomize ciphertexts; decrypted values are identical
        assert np.array_equal(a["u1"], b["u1"])
        assert np.array_equal(a["theta_deg"], b["theta_deg"])

    def test_default_nonces_are_fresh(self, short_profile, phi, keys, monkeypatch):
        first_c1 = []

        def recording_enc_vector(*args, **kwargs):
            out = crypto.enc_vector(*args, **kwargs)
            first_c1.append(out[0].c1)
            return out

        monkeypatch.setattr(harness, "enc_vector", recording_enc_vector)
        a = run_closed_loop("encrypted", short_profile, phi=phi, keys=keys, warmup=2.0)
        b = run_closed_loop("encrypted", short_profile, phi=phi, keys=keys, warmup=2.0)
        n = len(a)
        assert len(first_c1) == 2 * n
        assert first_c1[0] != first_c1[n]  # a repeated nonce reveals plaintext ratios
        for col in a.columns:
            assert np.array_equal(a[col], b[col])

    def test_networked_session_matches_in_process(self, short_profile, phi, keys, monkeypatch):
        enc = EncodingParams()
        enc_phi = enc_matrix(phi, enc, keys, Drbg(40))
        in_proc = run_closed_loop("encrypted", short_profile, phi=phi, keys=keys,
                                  nonce_seed=9, warmup=2.0)

        def no_device_enc_phi(*args):
            raise AssertionError("the service holds Enc(Phi); the device needs none")

        monkeypatch.setattr(harness, "enc_matrix", no_device_enc_phi)
        with ControllerService(enc_phi, keys.p) as svc:
            with DeviceSession(svc.address, timeout=2.0) as dev:
                net = run_closed_loop("encrypted", short_profile, phi=phi, keys=keys,
                                      nonce_seed=9, warmup=2.0, session=dev)
        for col in ("theta_deg", "k_p", "u1", "u2", "p1", "p2"):
            assert np.array_equal(in_proc[col], net[col])

    @pytest.mark.parametrize("mode", ["original", "approx", "encrypted"])
    @pytest.mark.parametrize("noise, named", [
        (dict(noise_pressure=float("nan")), "sensor p1 = nan at step 0 (t = 0 s)"),
        (dict(noise_theta=float("inf")), "sensor theta = inf at step 0 (t = 0 s)"),
    ], ids=["nan-pressure", "inf-angle"])
    def test_non_finite_sensor_is_named(self, mode, noise, named, short_profile, phi, keys):
        # refused by name before any controller sees it, the plaintext ones included
        seen = []
        with pytest.raises(ValueError, match=re.escape(named) + " is not finite"):
            run_closed_loop(mode, short_profile, phi=phi, keys=keys, warmup=2.0,
                            on_step=lambda k, c: seen.append(k), **noise)
        assert seen == []

    @pytest.mark.parametrize("mode", ["original", "approx", "encrypted"])
    def test_non_finite_stiffness_is_named_at_its_step(self, mode, short_profile, phi, keys,
                                                       monkeypatch):
        calls = []

        def stiffness(*args):
            calls.append(None)
            return math.nan if len(calls) == 38 else pam.measured_stiffness(*args)

        monkeypatch.setattr(harness, "measured_stiffness", stiffness)
        with pytest.raises(ValueError, match=re.escape("sensor k_p = nan at step 37 (t = 0.74")):
            run_closed_loop(mode, short_profile, phi=phi, keys=keys, warmup=2.0)

    def test_measure_time_populates_column(self, short_profile, phi, keys):
        trace = run_closed_loop("encrypted", short_profile, phi=phi, keys=keys,
                                warmup=2.0, measure_time=True)
        assert np.all(trace["compute_time"] > 0.0)

    def test_probe_hook_sees_controller(self, short_profile, phi):
        seen = []
        run_closed_loop("approx", short_profile, phi=phi, warmup=2.0,
                        on_step=lambda k, c: seen.append((k, c.last_psi is not None)))
        assert len(seen) == 100 and all(ok for _, ok in seen)

    @pytest.mark.parametrize("mode", ["original", "approx", "encrypted"])
    def test_anti_windup_holds_clamped_integrators(self, mode, short_profile, phi, keys):
        states = [ControllerState()]
        trace = run_closed_loop(mode, short_profile, phi=phi, keys=keys, warmup=2.0,
                                anti_windup=True, on_step=lambda k, c: states.append(c.state))
        flags = trace["clamp_flags"].astype(int)
        assert np.any(flags & 3)  # the run clamps, so the check below is not vacuous
        for k, f in enumerate(flags):
            prev, cur = states[k], states[k + 1]
            if f & 1:
                assert cur.x_f1 == prev.x_f1
            if f & 2:
                assert cur.x_f2 == prev.x_f2


class TestCallRouting:
    """Each mode reaches the layers through harness's module globals, once per step."""

    NAMES = ("measured_stiffness", "build_xi", "poly_step", "enc_vector", "enc_eval",
             "dec_plus", "original_step")

    @pytest.mark.parametrize("mode, called", [
        ("original", {"measured_stiffness", "original_step"}),
        ("approx", {"measured_stiffness", "build_xi", "poly_step"}),
        ("encrypted", {"measured_stiffness", "build_xi", "enc_vector", "enc_eval", "dec_plus",
                       "poly_step"}),
    ], ids=["original", "approx", "encrypted"])
    def test_one_call_per_step(self, mode, called, phi, keys, monkeypatch):
        counts = dict.fromkeys(self.NAMES, 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in self.NAMES:
            monkeypatch.setattr(harness, name, counting(name, getattr(harness, name)))
        trace = run_closed_loop(mode, ReferenceProfile(((0.0, 0.2, 5.0, 6.0),)),
                                phi=phi, keys=keys, warmup=0.2)
        assert len(trace) == 10
        assert counts == {name: 10 if name in called else 0 for name in self.NAMES}

    def test_one_wire_call_per_step_over_loopback(self, phi, keys, monkeypatch):
        # the set-up exchange runs none of these: it has a message of its own
        counts = dict.fromkeys(("build_xi", "poly_step", "enc_vector", "enc_eval", "dec_plus",
                                "DeviceSession.eval", "pack_eval_request", "parse_request",
                                "service.enc_eval", "pack_eval_response"), 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        parse = protocol.parse_counted_ciphertexts

        def counting_parse(payload, expected):
            # one parser serves both directions; the service parses the 18-entry requests
            counts["parse_request"] += expected == protocol.REQUEST_COUNT
            return parse(payload, expected)

        for name in ("build_xi", "poly_step", "enc_vector", "enc_eval", "dec_plus"):
            monkeypatch.setattr(harness, name, counting(name, getattr(harness, name)))
        monkeypatch.setattr(DeviceSession, "eval", counting("DeviceSession.eval",
                                                            DeviceSession.eval))
        for name in ("pack_eval_request", "pack_eval_response"):
            monkeypatch.setattr(protocol, name, counting(name, getattr(protocol, name)))
        monkeypatch.setattr(protocol, "parse_counted_ciphertexts", counting_parse)
        monkeypatch.setattr(service, "enc_eval", counting("service.enc_eval", service.enc_eval))
        enc_phi = enc_matrix(phi, EncodingParams(), keys, Drbg(40))
        with ControllerService(enc_phi, keys.p) as svc, \
                DeviceSession(svc.address, timeout=2.0) as dev:
            trace = run_closed_loop("encrypted", ReferenceProfile(((0.0, 0.2, 5.0, 6.0),)),
                                    phi=phi, keys=keys, warmup=0.2, session=dev)
        assert len(trace) == 10
        assert counts == {name: 0 if name == "enc_eval" else 10 for name in counts}

    @pytest.mark.parametrize("networked", [False, True], ids=["in-process", "loopback"])
    def test_one_evaluator_call_per_step(self, networked, phi, keys, monkeypatch):
        # the same evaluator calls either way: Enc(Phi) fetched once at construction,
        # then one eval per step; in-process that eval runs harness's enc_eval
        log = []

        def logging(name, fn):
            def wrapper(*args, **kwargs):
                log.append(name)
                return fn(*args, **kwargs)
            return wrapper

        evaluator = DeviceSession if networked else LocalEvaluator
        for name in ("fetch_enc_phi", "eval"):
            monkeypatch.setattr(evaluator, name, logging(name, getattr(evaluator, name)))
        monkeypatch.setattr(harness, "enc_eval", logging("enc_eval", harness.enc_eval))
        profile = ReferenceProfile(((0.0, 0.2, 5.0, 6.0),))
        kw = dict(phi=phi, keys=keys, warmup=0.2, on_step=lambda k, c: log.append("step"))
        if networked:
            enc_phi = enc_matrix(phi, EncodingParams(), keys, Drbg(40))
            with ControllerService(enc_phi, keys.p) as svc, \
                    DeviceSession(svc.address, timeout=2.0) as dev:
                trace = run_closed_loop("encrypted", profile, session=dev, **kw)
        else:
            trace = run_closed_loop("encrypted", profile, **kw)
        assert len(trace) == 10
        step = ["eval", "step"] if networked else ["eval", "enc_eval", "step"]
        assert log == ["fetch_enc_phi"] + step * 10

    def test_one_plant_call_per_period(self, monkeypatch):
        # one call integrates the warm-up, then one call each control period
        substeps = []

        def counting(*args):
            substeps.append(args[6])
            return pam.plant_step(*args)

        monkeypatch.setattr(harness, "plant_step", counting)
        trace = run_closed_loop("original", ReferenceProfile(((0.0, 0.2, 5.0, 6.0),)), warmup=0.3)
        assert len(trace) == 10
        assert substeps == [15 * DEFAULT_PLANT.substeps] + [DEFAULT_PLANT.substeps] * 10


class TestSensorNoise:
    """The noise drawn before the run is the noise a draw per sensor and step gave."""

    @pytest.mark.parametrize("noise_theta, noise_pressure", [
        (math.radians(0.5), 0.0), (0.0, 3.0), (math.radians(0.5), 3.0)],
        ids=["theta-only", "pressure-only", "both"])
    def test_columns_match_per_step_normal_draws(self, noise_theta, noise_pressure,
                                                 monkeypatch):
        plant_states = []  # the state each step measures: the previous plant_step's result

        def recording(*args):
            plant_states.append(pam.plant_step(*args))
            return plant_states[-1]

        monkeypatch.setattr(harness, "plant_step", recording)
        trace = run_closed_loop("original", ReferenceProfile(((0.0, 2.0, 5.0, 6.0),)),
                                warmup=0.3, noise_theta=noise_theta,
                                noise_pressure=noise_pressure, noise_seed=11)
        rng = np.random.default_rng(11)
        want = {"theta_deg": [], "p1": [], "p2": []}
        for s in plant_states[:len(trace)]:
            theta = s.theta + (rng.normal(0.0, noise_theta) if noise_theta else 0.0)
            p1, p2 = s.P1, s.P2
            if noise_pressure:
                p1 += rng.normal(0.0, noise_pressure)
                p2 += rng.normal(0.0, noise_pressure)
            want["theta_deg"].append(math.degrees(theta))
            want["p1"].append(p1)
            want["p2"].append(p2)
        for name, values in want.items():
            assert [x.hex() for x in trace[name].tolist()] == [x.hex() for x in values], name

    def test_negative_scale_is_named(self, short_profile):
        with pytest.raises(ValueError, match="noise_pressure = -0.1 is negative"):
            run_closed_loop("original", short_profile, warmup=0.2, noise_pressure=-0.1)


ZIN = ControllerInput(P1=450.0, P2=450.0, theta=0.0, theta_ref=math.radians(5.0), kp_ref=6.0)


def _per_entry(rows, delta, keys, rng):
    """Each entry encoded and encrypted on its own by `crypto.encrypt`, in row-major nonce order."""
    return [[crypto.encrypt(crypto.encode(float(v), delta, keys.p), keys, rng) for v in row]
            for row in rows]


class FakeSession(LocalEvaluator):
    """The in-process evaluator with two hooks: `set_up` may edit a copy of the Enc(Phi)
    it hands out, and `tamper(k, c2s, self)` may edit its reply to step k."""

    def __init__(self, enc_phi, p, tamper, set_up=lambda enc_phi: enc_phi):
        super().__init__(enc_phi, p)
        self.tamper, self.set_up = tamper, set_up
        self.replies = []

    def fetch_enc_phi(self):
        return self.set_up([list(row) for row in super().fetch_enc_phi()])

    def eval(self, enc_xi):
        self.replies.append(super().eval(enc_xi))
        return self.tamper(len(self.replies), self.replies[-1], self)


class TestOnlineOffline:
    """The encrypted step's modular powers run between steps, never inside one."""

    @pytest.fixture()
    def enc_phi(self, phi, keys):
        return enc_matrix(phi, EncodingParams(), keys, Drbg(40))

    @pytest.mark.parametrize("networked", [False, True], ids=["in-process", "loopback"])
    def test_no_power_inside_a_step(self, networked, phi, keys, enc_phi, monkeypatch):
        counts = {"pow": 0, "inverse": 0}

        def counting_pow(base, exp, mod=None):
            counts["inverse" if exp == -1 else "pow"] += 1
            return builtins.pow(base, exp, mod)

        def snapshot(log, fn):
            def wrapper(self, *args):
                before = dict(counts)
                out = fn(self, *args)
                log.append((counts["pow"] - before["pow"], counts["inverse"] - before["inverse"]))
                return out
            return wrapper

        setups, masks, steps, refills = [], [], [], []
        monkeypatch.setattr(crypto, "pow", counting_pow, raising=False)
        monkeypatch.setattr(EncryptedController, "__init__",
                            snapshot(setups, EncryptedController.__init__))
        monkeypatch.setattr(crypto.PhiMasks, "__init__", snapshot(masks, crypto.PhiMasks.__init__))
        monkeypatch.setattr(EncryptedController, "step", snapshot(steps, EncryptedController.step))
        monkeypatch.setattr(EncryptedController, "refill",
                            snapshot(refills, EncryptedController.refill))
        profile = ReferenceProfile(((0.0, 0.4, 5.0, 6.0),))
        if networked:
            with ControllerService(enc_phi, keys.p) as svc, \
                    DeviceSession(svc.address, timeout=2.0) as dev:
                run_closed_loop("encrypted", profile, phi=phi, keys=keys, warmup=2.0, session=dev)
        else:
            run_closed_loop("encrypted", profile, phi=phi, keys=keys, warmup=2.0)
        # set-up computes one session mask per nonzero entry; in-process it also
        # encrypts its own Phi from 90 pads off the tables, one batch inverse
        nonzero = int(np.count_nonzero(phi))
        assert nonzero == 71
        assert masks == [(nonzero, 0)]
        assert setups == [(nonzero, 0 if networked else 1)]
        assert steps == [(0, 0)] * 20  # step 1 included
        assert refills == [(0, 1)] * 20  # fixed-base tables, one batch inverse

    def test_256_bit_session_is_transparent(self, phi):
        # criterion 3 at four times the default key length, where the tables have 32 rows
        keys256 = find_session_key(phi, EncodingParams(), bits=256, seed=0)
        profile = ReferenceProfile(((0.0, 2.0, 5.0, 6.0), (2.0, 4.0, 10.0, 8.0)))
        devs = []
        ta = run_closed_loop("approx", profile, phi=phi, warmup=2.0)
        te = run_closed_loop("encrypted", profile, phi=phi, keys=keys256, warmup=2.0,
                             on_step=lambda k, c: devs.append(
                                 float(np.max(np.abs(c.last_psi - c.last_plain_psi)))))
        assert len(devs) == 200 and max(devs) <= 1e-4
        for col in ("u1", "u2"):
            assert np.max(np.abs(ta[col] - te[col])) <= 1e-4

    def test_step_without_refill_draws_fresh_pads(self, phi, keys, monkeypatch):
        c1 = []

        def recording_enc_vector(*args, **kwargs):
            out = crypto.enc_vector(*args, **kwargs)
            c1.append([ct.c1 for ct in out])
            return out

        monkeypatch.setattr(harness, "enc_vector", recording_enc_vector)
        ctl = EncryptedController(phi, keys, nonce_seed=3)
        ctl.step(ZIN)
        ctl.step(ZIN)
        assert len(c1) == 2 and c1[0] != c1[1]

    @pytest.mark.parametrize("networked", [False, True], ids=["in-process", "loopback"])
    def test_seeded_requests_match_per_entry_encryption(self, networked, phi, keys, enc_phi,
                                                        short_profile, monkeypatch):
        # the reference is each request encrypted entry by entry with fresh draws
        # from the same stream, after the device's own Enc(Phi) when it builds one
        requests, xis = [], []

        def recording_enc_vector(*args, **kwargs):
            out = crypto.enc_vector(*args, **kwargs)
            requests.append(out)
            xis.append(np.array(args[0]))
            return out

        monkeypatch.setattr(harness, "enc_vector", recording_enc_vector)
        kw = dict(phi=phi, keys=keys, nonce_seed=17, warmup=2.0)
        if networked:
            with ControllerService(enc_phi, keys.p) as svc, \
                    DeviceSession(svc.address, timeout=2.0) as dev:
                run_closed_loop("encrypted", short_profile, session=dev, **kw)
        else:
            run_closed_loop("encrypted", short_profile, **kw)
        rng = Drbg(17)
        if not networked:
            _per_entry(phi, EncodingParams().delta_phi, keys, rng)
        assert len(requests) == 100
        for xi, got in zip(xis, requests):
            assert got == _per_entry([xi], EncodingParams().delta_xi, keys, rng)[0]

    # a reply holds c2 only, so there is no c1 to compare: a stale or altered c2 decrypts
    # to a value spread over the group, which Dec+'s bound check refuses
    @pytest.mark.parametrize("tamper, completed", [
        (lambda k, prods, _: [[c2 + 1 if (k, i, j) == (3, 1, 4) else c2
                               for j, c2 in enumerate(row)] for i, row in enumerate(prods)], 2),
        (lambda k, prods, s: s.replies[0] if k == 2 else prods, 1),
        (lambda k, prods, s: [[ct.c2 for ct in row] for row in s.enc_phi] if k == 1 else prods,
         0),
    ], ids=["c2-altered-at-step-3", "step-1-replayed-at-step-2", "set-up-replayed-at-step-1"])
    def test_tampered_reply_is_named(self, tamper, completed, phi, keys, enc_phi, short_profile):
        assert phi[1][4] != 0.0  # a product Dec+ decrypts
        seen = []
        with pytest.raises(DecodeOverflowError, match="altered or replayed"):
            run_closed_loop("encrypted", short_profile, phi=phi, keys=keys, warmup=2.0,
                            session=FakeSession(enc_phi, keys.p, tamper),
                            on_step=lambda k, c: seen.append(k))
        assert len(seen) == completed

    @pytest.mark.parametrize("step", [1, 3])
    @pytest.mark.parametrize("c2_of", [lambda c2, p: 0, lambda c2, p: c2 + p], ids=["zero", "plus-p"])
    def test_c2_outside_the_group_is_named(self, c2_of, step, phi, keys, enc_phi, short_profile):
        # c2 = 0 used to surface as decode's bare ValueError; c2 + p decrypted like c2
        def tamper(k, prods, _):
            if k == step:
                prods[3][9] = c2_of(prods[3][9], keys.p)
            return prods

        seen = []
        with pytest.raises(ReplyIntegrityError, match=r"product \(4,10\): c2 .* outside \[1, p\)"):
            run_closed_loop("encrypted", short_profile, phi=phi, keys=keys, warmup=2.0,
                            session=FakeSession(enc_phi, keys.p, tamper),
                            on_step=lambda k, c: seen.append(k))
        assert len(seen) == step - 1

    @pytest.mark.parametrize("step", [1, 2])
    def test_c2_outside_the_group_on_a_zero_entry_is_named(self, step, phi, keys, enc_phi,
                                                           short_profile):
        # Phi[0][0] is 0, so Dec+ skips product (1,1); a c2 of 0 there used to pass
        assert phi[0][0] == 0.0

        def tamper(k, prods, _):
            if k == step:
                prods[0][0] = 0
            return prods

        seen = []
        with pytest.raises(ReplyIntegrityError, match=r"product \(1,1\): c2 = 0 is outside"):
            run_closed_loop("encrypted", short_profile, phi=phi, keys=keys, warmup=2.0,
                            session=FakeSession(enc_phi, keys.p, tamper),
                            on_step=lambda k, c: seen.append(k))
        assert len(seen) == step - 1

    def test_first_reply_c1_of_zero_is_named(self, phi, keys, enc_phi, short_profile):
        # the first reply is the set-up reply, Enc(Phi) itself: refused before any step
        def set_up(enc_phi):
            enc_phi[3][9] = enc_phi[3][9]._replace(c1=0)
            return enc_phi

        session = FakeSession(enc_phi, keys.p, lambda k, prods, _: prods, set_up)
        seen = []
        with pytest.raises(ReplyIntegrityError, match=r"product \(4,10\): c1 = 0 is outside"):
            run_closed_loop("encrypted", short_profile, phi=phi, keys=keys, warmup=2.0,
                            session=session, on_step=lambda k, c: seen.append(k))
        assert session.replies == [] and seen == []

    @pytest.mark.parametrize("networked", [False, True], ids=["in-process", "loopback"])
    def test_service_holding_another_phi_is_named_at_set_up(self, networked, phi, keys):
        # one entry off by 1 %: before, every step ran on the service's Phi
        i, j = 1, 6
        assert phi[i][j] != 0.0
        other = phi.copy()
        other[i][j] *= 1.01
        enc_other = enc_matrix(other, EncodingParams(), keys, Drbg(41))
        with contextlib.ExitStack() as stack:
            if networked:
                svc = stack.enter_context(ControllerService(enc_other, keys.p))
                session = stack.enter_context(DeviceSession(svc.address, timeout=2.0))
            else:
                session = LocalEvaluator(enc_other, keys.p)
            with pytest.raises(ReplyIntegrityError,
                               match=re.escape(f"Enc(Phi)[{i+1}][{j+1}] does not decrypt")):
                EncryptedController(phi, keys, session=session)

    def test_masks_are_c1_of_phi_to_the_minus_s(self, phi, keys):
        # the ground truth, from the controller's own Enc(Phi), before any step
        ctl = EncryptedController(phi, keys, nonce_seed=5)
        p, e = keys.p, keys.p - 1 - keys.s
        masks = [(i, j, m) for i, row in enumerate(ctl.masks.mask) for j, m in row]
        assert [(i, j) for i, j, _ in masks] == [tuple(ij) for ij in np.argwhere(phi != 0.0)]
        assert len(masks) == 71
        enc_phi = ctl.session.fetch_enc_phi()
        for i, j, m in masks:
            assert m == pow(enc_phi[i][j].c1, e, p)

    def test_refill_prepares_dec_plus_outside_the_step(self, phi, keys, enc_phi, monkeypatch):
        in_psi, prepared_in_psi = [], []
        psi, prepare = EncryptedController.psi, crypto.PhiMasks.prepare

        def marking_psi(self, xi):
            in_psi.append(True)
            try:
                return psi(self, xi)
            finally:
                in_psi.pop()

        def recording_prepare(self, *args):
            prepared_in_psi.append(bool(in_psi))
            return prepare(self, *args)

        monkeypatch.setattr(EncryptedController, "psi", marking_psi)
        monkeypatch.setattr(crypto.PhiMasks, "prepare", recording_prepare)
        session = FakeSession(enc_phi, keys.p,
                              lambda k, prods, s: s.replies[0] if k == 5 else prods)
        ctl = EncryptedController(phi, keys, nonce_seed=3, session=session)
        devs = []
        for refill in (True, True, True, False):  # the last step finds no refill
            if refill:
                ctl.refill()
            ctl.step(ZIN)
            devs.append(float(np.max(np.abs(ctl.last_psi - ctl.last_plain_psi))))
        # every step is prepared, step 1 included; only one without a refill does it inside
        assert prepared_in_psi == [False, False, False, True]
        assert max(devs) <= 1e-4
        ctl.refill()
        with pytest.raises(DecodeOverflowError, match="altered or replayed"):
            ctl.step(ZIN)  # step 1's reply to step 5's request
        assert prepared_in_psi[-1] is False

    @pytest.mark.parametrize("p1", [float("nan"), 1e4], ids=["nan", "beyond-the-bound"])
    def test_xi_outside_its_bound_is_named(self, p1, phi, keys):
        # a NaN passed the old abs(v) > bound test and died in encode's bare ValueError
        ctl = EncryptedController(phi, keys, nonce_seed=6)
        with pytest.raises(OverflowError, match=r"xi_12 = \S+ is outside its declared bound"):
            ctl.step(ZIN._replace(P1=p1))

    def test_own_enc_phi_is_enc_matrix_of_its_nonce_stream(self, phi, keys):
        # drawn as pads off the fixed-base tables: the ciphertexts of per-entry encryption
        assert EncryptedController(phi, keys, nonce_seed=31).session.fetch_enc_phi() == \
            _per_entry(phi, EncodingParams().delta_phi, keys, Drbg(31))

    def test_one_key_builds_its_tables_once(self, phi, keys, monkeypatch):
        # two in-process controllers, an Enc(Phi) for a service and a networked
        # controller's refills all draw their pads off the key's one pair of tables
        built = []
        init = crypto.FixedBase.__init__

        def counting_init(self, base, p):
            built.append(base)
            init(self, base, p)

        monkeypatch.setattr(crypto.FixedBase, "__init__", counting_init)
        fresh = ElGamalKeys(keys.p, keys.g, keys.h, keys.s)
        for nonce_seed in (1, 2):
            EncryptedController(phi, fresh, nonce_seed=nonce_seed).step(ZIN)
        enc_phi = enc_matrix(phi, EncodingParams(), fresh, Drbg(40))
        with ControllerService(enc_phi, keys.p) as svc, \
                DeviceSession(svc.address, timeout=2.0) as dev:
            ctl = EncryptedController(phi, fresh, session=dev)
            for _ in range(3):
                ctl.refill()
                ctl.step(ZIN)
        assert built == [keys.g, keys.h]

    def test_offline_time_kept_out_of_the_csv(self, short_profile, phi, keys, tmp_path):
        trace = run_closed_loop("encrypted", short_profile, phi=phi, keys=keys,
                                warmup=2.0, measure_time=True)
        assert trace.offline_time > 0.0
        trace.to_csv(tmp_path / "t.csv")
        header = (tmp_path / "t.csv").read_text().splitlines()[0]
        assert header == ",".join(harness.TRACE_COLUMNS)
        untimed = run_closed_loop("encrypted", short_profile, phi=phi, keys=keys, warmup=2.0)
        assert untimed.offline_time == 0.0


def _reference_csv(trace: SimTrace) -> str:
    """The trace CSV written a row at a time, one cell at a time."""
    def fmt(x):
        x = float(x)
        if math.isfinite(x) and x == int(x) and abs(x) < 1e15:
            return repr(x)
        return format(x, ".12g")

    names = list(harness.TRACE_COLUMNS)
    cols = [trace[c] for c in names]
    if trace.xi is not None:
        names += [f"xi_{j}" for j in range(1, 19)]
        cols += [trace.xi[:, j] for j in range(18)]
    lines = [",".join(names)]
    lines += [",".join(fmt(col[k]) for col in cols) for k in range(len(trace))]
    return "".join(line + "\r\n" for line in lines)


def _reference_read(path) -> tuple[list[str], np.ndarray]:
    """The trace CSV read a row at a time, with float() on each cell."""
    with open(path, newline="") as fh:
        names, *rows = csv.reader(fh)
    return names, np.array([[float(x) for x in row] for row in rows]).reshape(-1, len(names))


class TestTraceCsv:
    """SimTrace.to_csv formats a column at a time; the text is the row-at-a-time writer's."""

    SPECIAL = [0.0, -0.0, 3.0, -7.0, 0.1, 1.0 / 3.0, 2.5, 1e15 - 1.0, 1e15, -1e15, 2.5e15,
               1e300, 5e-324, -2.2e-310, 2.2250738585072014e-308, 123456789.123456789, 0.02,
               1234567.123456]

    def _synthetic(self, n, xi=True):
        """Every column cycles through the special cells and random ones of many scales."""
        rng = np.random.default_rng(3)
        scales = 10.0 ** rng.integers(-8, 9, 40)
        cells = np.resize(np.concatenate([self.SPECIAL, rng.normal(0.0, 1.0, 40) * scales]), n)
        cols = {name: np.roll(cells, i) for i, name in enumerate(harness.TRACE_COLUMNS)}
        xi_log = np.stack([np.roll(cells, 3 * j) for j in range(18)], axis=1) if xi else None
        return SimTrace(columns=cols, xi=xi_log)

    @pytest.mark.parametrize("n, xi", [
        (600, True), (600, False), (256, True), (1, True), (0, False)])
    def test_matches_row_at_a_time_writer(self, n, xi, tmp_path):
        trace = self._synthetic(n, xi)
        trace.to_csv(tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_bytes() == _reference_csv(trace).encode()

    @pytest.mark.parametrize("n, xi", [(600, True), (600, False), (1, True), (1, False),
                                       (0, True), (0, False)])
    def test_reader_matches_float_per_cell(self, n, xi, tmp_path):
        trace = self._synthetic(n, xi)
        for j, name in enumerate(("u1", "p2", "k_p")):
            trace.columns[name][j::7] = [np.nan, np.inf, -np.inf][j]
        if xi and n:
            trace.xi[::5, 4] = np.nan
        trace.to_csv(tmp_path / "t.csv")
        names, cells = _reference_read(tmp_path / "t.csv")
        back = SimTrace.from_csv(tmp_path / "t.csv")
        assert len(back) == n
        for i, name in enumerate(names):
            got = back.xi[:, int(name[3:]) - 1] if name.startswith("xi_") else back[name]
            assert got.tobytes() == cells[:, i].tobytes(), name
        assert (back.xi is None) == (not xi)

    @pytest.mark.parametrize("edit", ["ragged", "non-numeric", "long"])
    def test_reader_refuses_a_malformed_row(self, edit, tmp_path):
        self._synthetic(20, False).to_csv(tmp_path / "t.csv")
        lines = (tmp_path / "t.csv").read_text().splitlines()
        cells = lines[5].split(",")
        lines[5] = ",".join({"ragged": cells[:-1], "non-numeric": cells[:3] + ["x"] + cells[4:],
                             "long": cells + ["1.0"]}[edit])
        (tmp_path / "t.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^trace file {re.escape(str(tmp_path))}"):
            SimTrace.from_csv(tmp_path / "t.csv")

    def test_reader_reads_blank_lines_as_no_rows(self, tmp_path):
        (tmp_path / "t.csv").write_text(",".join(harness.TRACE_COLUMNS) + "\r\n\r\n\n")
        assert len(SimTrace.from_csv(tmp_path / "t.csv")) == 0
        self._synthetic(3, False).to_csv(tmp_path / "t.csv")
        header, *rows = (tmp_path / "t.csv").read_text().splitlines()
        (tmp_path / "t.csv").write_text("\n\n".join([header, *rows]) + "\n\n")
        assert len(SimTrace.from_csv(tmp_path / "t.csv")) == 3

    def test_reader_names_an_empty_file(self, tmp_path):
        (tmp_path / "t.csv").write_text("")
        with pytest.raises(ValueError, match="is empty: no header row"):
            SimTrace.from_csv(tmp_path / "t.csv")

    def test_closed_loop_trace_matches_row_at_a_time_writer(self, short_profile, phi, tmp_path):
        trace = run_closed_loop("approx", short_profile, phi=phi, warmup=2.0, record_xi=True,
                                noise_pressure=1.0, measure_time=True)
        trace.to_csv(tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_bytes() == _reference_csv(trace).encode()

    def test_non_finite_cells_round_trip(self, tmp_path):
        trace = self._synthetic(40)
        trace.columns["u1"][[3, 4, 5]] = [np.nan, np.inf, -np.inf]
        trace.xi[7, 2] = np.nan
        trace.to_csv(tmp_path / "t.csv")
        rows = (tmp_path / "t.csv").read_text().splitlines()
        u1 = harness.TRACE_COLUMNS.index("u1")
        assert [rows[k + 1].split(",")[u1] for k in (3, 4, 5)] == ["nan", "inf", "-inf"]
        back = SimTrace.from_csv(tmp_path / "t.csv")
        assert np.isnan(back["u1"][3]) and back["u1"][4] == np.inf and back["u1"][5] == -np.inf
        assert np.isnan(back.xi[7, 2])
        for name in harness.TRACE_COLUMNS:
            np.testing.assert_allclose(back[name], trace[name], rtol=1e-11, equal_nan=True)
        np.testing.assert_allclose(back.xi, trace.xi, rtol=1e-11, equal_nan=True)


class TestCompareReport:
    def _synthetic(self, bias):
        from pamenc.harness import TRACE_COLUMNS
        n = 2250
        cols = {name: np.zeros(n) for name in TRACE_COLUMNS}
        cols["time"] = np.arange(n) * 0.02
        cols["theta_ref_deg"] = np.where(np.arange(n) < 750, 5.0, 10.0)
        cols["kp_ref"] = np.full(n, 6.0)
        cols["theta_deg"] = cols["theta_ref_deg"] + bias
        cols["k_p"] = cols["kp_ref"] - 2 * bias
        return SimTrace(columns=cols)

    def test_identical_traces_zero_spread(self):
        t = self._synthetic(0.05)
        report = compare_report({"a": [t, t]})
        for row in report.rows:
            assert row.gamma_min == row.gamma_max == row.gamma_mean

    def test_analytic_gamma_on_injected_error(self):
        t = self._synthetic(0.1)
        report = compare_report({"a": [t]})
        for row in report.rows:
            want = (0.1 if row.signal == "theta" else 0.2) * math.sqrt(250)
            assert row.gamma_mean == pytest.approx(want, rel=1e-12)

    def test_tracking_percentages(self):
        t = self._synthetic(0.05)
        report = compare_report({"a": [t]})
        theta_row = next(r for r in report.rows
                         if r.signal == "theta" and r.window.k0 == 500)
        assert theta_row.ref_value == 5.0
        assert theta_row.tracking_pct == pytest.approx(100.0 * (1 - 0.05 / 5.0))
        assert theta_row.mean_abs_err_pct == pytest.approx(100.0 * 0.05 / 5.0)

    def test_spread_statistics(self):
        ts = [self._synthetic(b) for b in (0.02, 0.05, 0.08)]
        report = compare_report({"a": ts})
        row = next(r for r in report.rows if r.signal == "theta" and r.window.k0 == 500)
        gammas = [b * math.sqrt(250) for b in (0.02, 0.05, 0.08)]
        assert row.gamma_min == pytest.approx(min(gammas))
        assert row.gamma_max == pytest.approx(max(gammas))
        assert row.gamma_mean == pytest.approx(np.mean(gammas))

    def test_profile_mismatch_rejected(self):
        a = self._synthetic(0.05)
        b = self._synthetic(0.05)
        b.columns["kp_ref"] = np.full(2250, 7.0)
        with pytest.raises(ValueError):
            compare_report({"a": [a], "b": [b]})

    def test_window_stats_reject_reference_step(self):
        t = self._synthetic(0.0)
        with pytest.raises(ValueError):
            window_tracking_stats(t, MetricWindow(600, 800))

    def test_text_and_csv_outputs(self, tmp_path):
        report = compare_report({"a": [self._synthetic(0.05)]})
        text = report.to_text()
        assert "worst tracked-to-reference ratio" in text
        report.to_csv(tmp_path / "report.csv")
        header = (tmp_path / "report.csv").read_text().splitlines()[0]
        assert header.startswith("label,k0,k1,signal,gamma_mean")
