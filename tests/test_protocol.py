"""Wire framing, the networked service, and loopback equivalence."""

import re
import socket
import struct
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pamenc import (
    DEFAULT_GAINS,
    DEFAULT_PAM,
    Ciphertext,
    ControllerService,
    DeviceSession,
    Drbg,
    EncodingParams,
    build_phi,
    enc_eval,
    enc_matrix,
    enc_vector,
    fit_controller_coeffs,
    hom_mul,
    keygen,
)
from pamenc import protocol
from pamenc.crypto import ReplyIntegrityError
from pamenc.protocol import (
    ERR_COUNT,
    ERR_MALFORMED,
    ERR_VERSION,
    MSG_ERROR,
    MSG_EVAL_REQUEST,
    MSG_EVAL_RESPONSE,
    PROTOCOL_VERSION,
    ProtocolError,
)


@pytest.fixture(scope="module")
def keys():
    return keygen(bits=64, seed=2024)


@pytest.fixture(scope="module")
def phi():
    coeffs, _ = fit_controller_coeffs(DEFAULT_PAM)
    return build_phi(coeffs, DEFAULT_PAM, DEFAULT_GAINS)


@pytest.fixture(scope="module")
def enc_phi(phi, keys):
    return enc_matrix(phi, EncodingParams(), keys, Drbg(123))


@pytest.fixture()
def service(enc_phi, keys):
    with ControllerService(enc_phi, keys.p) as svc:
        yield svc


class TestFraming:
    def test_ciphertext_roundtrip(self):
        # mixed widths: every integer takes the width of the largest, here 9 bytes
        cts = [Ciphertext(1, 2), Ciphertext(2**63 - 1, 12345678901234567),
               Ciphertext(255, 2**64 + 1)]
        payload = struct.pack(">H", 3) + protocol.pack_ciphertexts(cts)
        assert len(payload) == 2 + 3 * 2 * 9
        assert protocol.parse_counted_ciphertexts(payload, 3) == cts

    def test_frame_roundtrip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            a.sendall(protocol.pack_eval_request([Ciphertext(5, 9)] * 18, seq=2**32 - 1))
            msg_type, version, payload = protocol.read_frame(b)
            assert msg_type == MSG_EVAL_REQUEST and version == PROTOCOL_VERSION == 3
            seq, rest = protocol.split_sequence(payload)
            assert seq == 2**32 - 1
            cts = protocol.parse_counted_ciphertexts(rest, 18)
            assert cts == [Ciphertext(5, 9)] * 18
        finally:
            a.close()
            b.close()

    def test_step_reply_roundtrip(self):
        # the reply echoes the request's number and carries one integer per product
        c2s = [1, 2**64 - 1, 12345] * 30
        frame = protocol.pack_eval_response(c2s, seq=7)
        assert len(frame) == 4 + 3 + 4 + 2 + 90 * 8
        assert frame[4] == MSG_EVAL_RESPONSE
        seq, rest = protocol.split_sequence(frame[7:])
        assert seq == 7 and protocol.parse_counted_integers(rest, 90) == c2s

    @pytest.mark.parametrize("payload", [b"", b"\x00\x00\x01"], ids=["empty", "three-bytes"])
    def test_missing_sequence_number_rejected(self, payload):
        with pytest.raises(ProtocolError) as err:
            protocol.split_sequence(payload)
        assert err.value.code == ERR_MALFORMED

    def test_truncated_payload_rejected(self):
        payload = struct.pack(">H", 2) + protocol.pack_ciphertexts([Ciphertext(5, 9)])
        with pytest.raises(ProtocolError) as err:
            protocol.parse_counted_ciphertexts(payload, 2)
        assert err.value.code == ERR_MALFORMED

    def test_trailing_byte_rejected(self):
        payload = struct.pack(">H", 2) + protocol.pack_ciphertexts([Ciphertext(5, 9)] * 2)
        with pytest.raises(ProtocolError) as err:
            protocol.parse_counted_ciphertexts(payload + b"\x00", 2)
        assert err.value.code == ERR_MALFORMED

    def test_count_mismatch_rejected(self):
        payload = struct.pack(">H", 3) + protocol.pack_ciphertexts([Ciphertext(5, 9)] * 3)
        with pytest.raises(ProtocolError) as err:
            protocol.parse_counted_ciphertexts(payload, 18)
        assert err.value.code == ERR_COUNT

    def test_oversized_frame_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", protocol.MAX_FRAME + 1))
            with pytest.raises(ProtocolError) as err:
                protocol.read_frame(b)
            assert err.value.code == ERR_MALFORMED
        finally:
            a.close()
            b.close()

    def test_error_frame_roundtrip(self):
        frame = protocol.pack_error(ERR_VERSION, "nope")
        msg_type = frame[4]
        assert msg_type == MSG_ERROR
        err = protocol.parse_error(frame[7:])
        assert err.code == ERR_VERSION and err.reason == "nope"


def reference_pack(cts, width=None):
    """The per-integer encoder the codec must match byte for byte.

    Every integer takes `width` bytes, by default the narrowest that holds them all.
    """
    halves = [half for ct in cts for half in (ct.c1, ct.c2)]
    if width is None:
        width = (max(halves, default=1).bit_length() + 7) // 8
    return b"".join(half.to_bytes(width, "big") for half in halves)


def reference_parse(payload, count):
    """The per-integer decoder, for a payload whose count and width are valid."""
    width = (len(payload) - 2) // (2 * count)
    ints = [int.from_bytes(payload[i:i + width], "big") for i in range(2, len(payload), width)]
    return [Ciphertext(c1, c2) for c1, c2 in zip(ints[::2], ints[1::2])]


@st.composite
def ciphertexts_of_one_width(draw):
    """(width, cts): 1-65 byte integers (keys up to 520 bits), 1-90 ciphertexts, edges included."""
    width = draw(st.integers(1, 65))
    top = (1 << (8 * width)) - 1
    half = st.one_of(st.just(0), st.just(top), st.integers(0, top))
    pairs = draw(st.lists(st.tuples(half, half), min_size=1, max_size=90))
    return width, [Ciphertext(c1, c2) for c1, c2 in pairs]


class TestCodecOracle:
    @settings(max_examples=300, deadline=None)
    @given(ciphertexts_of_one_width())
    def test_matches_the_per_integer_codec(self, case):
        width, cts = case
        packed = protocol.pack_ciphertexts(cts)
        assert packed == reference_pack(cts)
        payload = struct.pack(">H", len(cts)) + packed
        if max(max(ct) for ct in cts) == 0:  # every integer 0: a zero-width payload
            with pytest.raises(ProtocolError) as err:
                protocol.parse_counted_ciphertexts(payload, len(cts))
            assert err.value.code == ERR_MALFORMED
        else:
            got = protocol.parse_counted_ciphertexts(payload, len(cts))
            assert got == cts and all(type(ct) is Ciphertext for ct in got)
        # any width that holds the integers parses, not only the narrowest
        wide = struct.pack(">H", len(cts)) + reference_pack(cts, width)
        got = protocol.parse_counted_ciphertexts(wide, len(cts))
        assert got == reference_parse(wide, len(cts)) == cts
        assert all(type(ct) is Ciphertext for ct in got)
        with pytest.raises(ProtocolError) as err:
            protocol.parse_counted_ciphertexts(wide + b"\x00", len(cts))
        assert err.value.code == ERR_MALFORMED

    @pytest.mark.parametrize("count", [1, 18, 90])
    def test_zero_width_payload_rejected(self, count):
        with pytest.raises(ProtocolError) as err:
            protocol.parse_counted_ciphertexts(struct.pack(">H", count), count)
        assert err.value.code == ERR_MALFORMED


class TestService:
    def test_loopback_matches_in_process(self, service, enc_phi, keys):
        rng = Drbg(55)
        xi = np.linspace(-1.0, 1.0, 18)
        enc_xi = enc_vector(xi, 1e8, keys, rng)
        want = enc_eval(enc_phi, enc_xi, keys.p)
        with DeviceSession(service.address, timeout=2.0) as dev:
            got = dev.eval(enc_xi)
        assert got == want  # ciphertext-level (byte-for-byte) equality

    def test_loopback_bytes_equal(self, service, enc_phi, keys):
        rng = Drbg(56)
        enc_xi = enc_vector(np.ones(18), 1e8, keys, rng)
        flat = [ct for row in enc_eval(enc_phi, enc_xi, keys.p) for ct in row]
        want_bytes = protocol.pack_eval_response(flat)
        sock = socket.create_connection(service.address, timeout=2.0)
        try:
            sock.sendall(protocol.pack_eval_request(enc_xi))
            got = protocol.recv_exact(sock, len(want_bytes))
        finally:
            sock.close()
        assert got == want_bytes

    def test_set_up_request_is_answered_with_enc_phi(self, service, enc_phi):
        # a message of its own, with no payload; the reply holds both halves of Enc(Phi)
        frame = protocol.pack_phi_request()
        assert len(frame) == 4 + 3
        want = protocol.pack_phi_response([ct for row in enc_phi for ct in row])
        assert len(want) == 4 + 3 + 2 + 180 * 8 == 1449
        sock = socket.create_connection(service.address, timeout=2.0)
        try:
            sock.sendall(frame)
            assert protocol.recv_exact(sock, len(want)) == want
        finally:
            sock.close()
        with DeviceSession(service.address, timeout=2.0) as dev:
            assert dev.fetch_enc_phi() == enc_phi
            assert dev.seq == 0  # set-up takes no sequence number

    def test_multiple_steps_one_session(self, service, enc_phi, keys):
        rng = Drbg(57)
        with DeviceSession(service.address, timeout=2.0) as dev:
            for _ in range(5):
                enc_xi = enc_vector(np.ones(18), 1e8, keys, rng)
                got = dev.eval(enc_xi)
                assert got == enc_eval(enc_phi, enc_xi, keys.p)

    def test_malformed_length_prefix(self, service):
        sock = socket.create_connection(service.address, timeout=2.0)
        try:
            sock.sendall(struct.pack(">I", 2) + b"xx")  # below minimum body size
            msg_type, _, payload = protocol.read_frame(sock)
            assert msg_type == MSG_ERROR
            assert protocol.parse_error(payload).code == ERR_MALFORMED
            assert sock.recv(1) == b""  # session closed
        finally:
            sock.close()

    def test_version_mismatch_rejected(self, service, keys):
        rng = Drbg(58)
        enc_xi = enc_vector(np.ones(18), 1e8, keys, rng)
        payload = struct.pack(">H", 18) + protocol.pack_ciphertexts(enc_xi)
        frame = protocol.pack_frame(MSG_EVAL_REQUEST, payload, version=99)
        sock = socket.create_connection(service.address, timeout=2.0)
        try:
            sock.sendall(frame)
            msg_type, _, body = protocol.read_frame(sock)
            assert msg_type == MSG_ERROR
            assert protocol.parse_error(body).code == ERR_VERSION
            assert sock.recv(1) == b""
        finally:
            sock.close()

    def test_wrong_count_rejected(self, service, keys):
        rng = Drbg(59)
        enc_xi = enc_vector(np.ones(7), 1e8, keys, rng)
        sock = socket.create_connection(service.address, timeout=2.0)
        try:
            sock.sendall(protocol.pack_eval_request(enc_xi))
            msg_type, _, body = protocol.read_frame(sock)
            assert msg_type == MSG_ERROR
            assert protocol.parse_error(body).code == ERR_COUNT
        finally:
            sock.close()

    def test_device_session_surfaces_errors(self, service, keys):
        rng = Drbg(60)
        enc_xi = enc_vector(np.ones(5), 1e8, keys, rng)
        with DeviceSession(service.address, timeout=2.0) as dev:
            with pytest.raises(ProtocolError) as err:
                dev.eval(enc_xi)
            assert err.value.code == ERR_COUNT

    def test_late_reply_closes_the_session(self):
        # a fake service answers request 1 after the deadline, then request 2 on time
        listener = socket.create_server(("127.0.0.1", 0))
        late_reply_sent = threading.Event()

        def fake_service():
            conn, _ = listener.accept()
            with conn:
                for k in (1, 2):
                    try:
                        protocol.read_frame(conn)
                    except OSError:
                        return
                    if k == 1:
                        time.sleep(0.3)
                    try:
                        conn.sendall(protocol.pack_eval_response([k] * 90, seq=k - 1))
                    except OSError:
                        return
                    finally:
                        late_reply_sent.set()

        thread = threading.Thread(target=fake_service, daemon=True)
        thread.start()
        enc_xi = [Ciphertext(5, 9)] * 18
        try:
            with DeviceSession(listener.getsockname(), timeout=0.1) as dev:
                with pytest.raises(TimeoutError):
                    dev.eval(enc_xi)
                assert late_reply_sent.wait(2.0)
                # an open session would now return the products tagged for request 1
                with pytest.raises(OSError) as err:
                    dev.eval(enc_xi)
                assert not isinstance(err.value, TimeoutError)
        finally:
            listener.close()
            thread.join(timeout=2.0)

    def test_service_survives_bad_clients(self, service, enc_phi, keys):
        # a crashing client must not leak the listener or wedge later sessions
        for _ in range(3):
            sock = socket.create_connection(service.address, timeout=2.0)
            sock.sendall(b"\x00\x00")  # partial length prefix, then vanish
            sock.close()
        rng = Drbg(61)
        enc_xi = enc_vector(np.ones(18), 1e8, keys, rng)
        with DeviceSession(service.address, timeout=2.0) as dev:
            assert dev.eval(enc_xi) == enc_eval(enc_phi, enc_xi, keys.p)

    def test_concurrent_sessions(self, service, enc_phi, keys):
        results = []

        def worker(seed):
            rng = Drbg(seed)
            enc_xi = enc_vector(np.full(18, 0.5), 1e8, keys, rng)
            with DeviceSession(service.address, timeout=2.0) as dev:
                results.append(dev.eval(enc_xi) == enc_eval(enc_phi, enc_xi, keys.p))

        threads = [threading.Thread(target=worker, args=(100 + i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == [True] * 4

    @pytest.mark.parametrize("n_sessions", [0, 3])
    def test_stop_returns_at_once_and_leaves_no_thread(self, enc_phi, keys, n_sessions):
        before = set(threading.enumerate())
        svc = ControllerService(enc_phi, keys.p).start()
        sessions = [DeviceSession(svc.address, timeout=2.0) for _ in range(n_sessions)]
        try:
            for dev in sessions:  # each session thread is now blocked reading its next frame
                dev.eval(enc_vector(np.ones(18), 1e8, keys, Drbg(62)))
            time.sleep(0.1)  # let the accept thread block in accept()
            t0 = time.perf_counter()
            svc.stop()
            elapsed = time.perf_counter() - t0
        finally:
            for dev in sessions:
                dev.close()
        assert elapsed < 0.5
        assert not set(threading.enumerate()) - before


@contextmanager
def fake_peer(answer):
    """A one-connection peer on loopback. For the k-th frame it reads (k = 1, 2, ...) it
    sends `answer(k, msg_type, version, payload)`, or hangs up when that is None."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        conn, _ = listener.accept()
        with conn:
            for k in range(1, 100):
                try:
                    reply = answer(k, *protocol.read_frame(conn))
                    if reply is None:
                        return
                    conn.sendall(reply)
                except OSError:
                    return

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()
    finally:
        listener.close()
        thread.join(timeout=2.0)


def honest_reply(enc_phi, p, payload, seq=None):
    """The service's reply frame to a step request payload, under `seq` if given."""
    got, rest = protocol.split_sequence(payload)
    enc_xi = protocol.parse_counted_ciphertexts(rest, protocol.REQUEST_COUNT)
    flat = [c2 for row in enc_eval(enc_phi, enc_xi, p) for c2 in row]
    return protocol.pack_eval_response(flat, got if seq is None else seq)


class TestSequence:
    """A step reply must carry its request's sequence number; set-up takes none."""

    def _xi(self, keys, seed):
        return enc_vector(np.linspace(-1.0, 1.0, 18), 1e8, keys, Drbg(seed))

    @pytest.mark.parametrize("case", ["replayed", "reordered"])
    def test_stale_or_early_reply_frame_is_refused(self, case, enc_phi, keys):
        frames = []

        def answer(k, msg_type, version, payload):
            if case == "replayed":  # request 2 gets the frame that answered request 1
                frames.append(honest_reply(enc_phi, keys.p, payload))
                return frames[0]
            return honest_reply(enc_phi, keys.p, payload, seq=1)  # request 2's reply first

        enc_xi = self._xi(keys, 70)
        with fake_peer(answer) as address, DeviceSession(address, timeout=2.0) as dev:
            if case == "replayed":
                assert dev.eval(enc_xi) == enc_eval(enc_phi, enc_xi, keys.p)
                want = "reply carries sequence number 0, the request 1"
            else:
                want = "reply carries sequence number 1, the request 0"
            with pytest.raises(ReplyIntegrityError, match=re.escape(want)):
                dev.eval(enc_xi)
            with pytest.raises(OSError):  # the session is closed
                dev.eval(enc_xi)

    def test_sequence_number_wraps_at_2_32(self, service, enc_phi, keys, monkeypatch):
        sent = []
        pack = protocol.pack_eval_request

        def recording_pack(cts, seq=0):
            sent.append(seq)
            return pack(cts, seq)

        monkeypatch.setattr(protocol, "pack_eval_request", recording_pack)
        with DeviceSession(service.address, timeout=2.0) as dev:
            dev.seq = 2**32 - 1
            for seed in (71, 72):
                enc_xi = self._xi(keys, seed)
                assert dev.eval(enc_xi) == enc_eval(enc_phi, enc_xi, keys.p)
            assert dev.seq == 1
        assert sent == [2**32 - 1, 0]

    def test_set_up_reply_where_a_step_reply_is_due(self, enc_phi, keys):
        set_up = protocol.pack_phi_response([ct for row in enc_phi for ct in row])
        with fake_peer(lambda *_: set_up) as address, \
                DeviceSession(address, timeout=2.0) as dev:
            with pytest.raises(ProtocolError, match="unexpected message type 0x4") as err:
                dev.eval(self._xi(keys, 73))
            assert err.value.code == ERR_MALFORMED
            with pytest.raises(OSError):
                dev.eval(self._xi(keys, 73))

    def test_set_up_request_with_a_payload_rejected(self, service):
        sock = socket.create_connection(service.address, timeout=2.0)
        try:
            sock.sendall(protocol.pack_frame(protocol.MSG_PHI_REQUEST, b"\x00"))
            msg_type, _, body = protocol.read_frame(sock)
            assert msg_type == MSG_ERROR
            assert protocol.parse_error(body).code == ERR_MALFORMED
        finally:
            sock.close()

    def test_v2_device_gets_error_2(self, service, keys):
        # a version-2 step request: no sequence number, count and ciphertexts
        payload = struct.pack(">H", 18) + protocol.pack_ciphertexts(self._xi(keys, 74))
        sock = socket.create_connection(service.address, timeout=2.0)
        try:
            sock.sendall(protocol.pack_frame(MSG_EVAL_REQUEST, payload, version=2))
            msg_type, _, body = protocol.read_frame(sock)
            assert msg_type == MSG_ERROR
            err = protocol.parse_error(body)
            assert err.code == ERR_VERSION and err.reason == "server speaks version 3, got 2"
            assert sock.recv(1) == b""
        finally:
            sock.close()

    @pytest.mark.parametrize("call", ["set-up", "step"])
    def test_v2_service_gives_error_2(self, call, keys):
        # what a version-2 service answers a version-3 frame with
        def v2_service(k, msg_type, version, payload):
            return protocol.pack_error(ERR_VERSION, f"server speaks version 2, got {version}")

        with fake_peer(v2_service) as address, DeviceSession(address, timeout=2.0) as dev:
            with pytest.raises(ProtocolError, match="server speaks version 2, got 3") as err:
                if call == "set-up":
                    dev.fetch_enc_phi()
                else:
                    dev.eval(self._xi(keys, 75))
            assert err.value.code == ERR_VERSION

    def test_v2_reply_refused_with_error_2(self, enc_phi, keys):
        def v2_reply(k, msg_type, version, payload):
            _, rest = protocol.split_sequence(payload)
            enc_xi = protocol.parse_counted_ciphertexts(rest, 18)
            flat = [hom_mul(a, x, keys.p) for row in enc_phi for a, x in zip(row, enc_xi)]
            body = struct.pack(">H", 90) + protocol.pack_ciphertexts(flat)
            return protocol.pack_frame(MSG_EVAL_RESPONSE, body, version=2)

        with fake_peer(v2_reply) as address, DeviceSession(address, timeout=2.0) as dev:
            with pytest.raises(ProtocolError, match="device speaks 3, got 2") as err:
                dev.eval(self._xi(keys, 76))
            assert err.value.code == ERR_VERSION
