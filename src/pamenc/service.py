"""Networked encrypted-controller service and the device-side session.

The service holds only the encrypted controller matrix and the public
modulus: it multiplies ciphertexts and never sees the secret key or any
plaintext. At set-up the device fetches Enc(Phi) with one PHI_REQUEST and
checks it (`crypto.PhiMasks`). Each control step it encrypts xi and sends
an EVAL_REQUEST with the next sequence number; the service answers with
the c2 halves of the 90 products under the same number, and the device
runs Dec+ on them. The device refuses a reply with any other number, so a
replayed or reordered reply frame ends the session.
"""

from __future__ import annotations

import socket
import threading
from itertools import chain

from . import protocol
from .crypto import Ciphertext, ReplyIntegrityError, enc_eval
from .protocol import (
    ERR_INTERNAL,
    ERR_MALFORMED,
    ERR_VERSION,
    MSG_ERROR,
    MSG_EVAL_REQUEST,
    MSG_EVAL_RESPONSE,
    MSG_PHI_REQUEST,
    MSG_PHI_RESPONSE,
    PROTOCOL_VERSION,
    SEQUENCE_MODULUS,
    ProtocolError,
)

DEFAULT_TIMEOUT = 0.015  # matches the control-period deadline budget


class ControllerService:
    """TCP server evaluating Enc(Phi) * Enc(xi) products, one session per connection."""

    def __init__(self, enc_phi: list[list[Ciphertext]], p: int,
                 host: str = "127.0.0.1", port: int = 0):
        self._enc_phi = enc_phi
        self._p = p
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(8)
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._sessions: dict[socket.socket, threading.Thread] = {}  # live connections
        self._accept_thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._sock.getsockname()

    def start(self) -> "ControllerService":
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()
        return self

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except OSError:
                break
            t = threading.Thread(target=self._run_session, args=(conn,), daemon=True)
            with self._lock:
                self._sessions[conn] = t
            t.start()

    def _run_session(self, conn: socket.socket) -> None:
        try:
            self._serve_session(conn)
        finally:
            with self._lock:
                del self._sessions[conn]

    def _serve_session(self, conn: socket.socket) -> None:
        with conn:
            while not self._stop.is_set():
                try:
                    msg_type, version, payload = protocol.read_frame(conn)
                except OSError:
                    return
                except ProtocolError as exc:
                    self._send_error(conn, exc.code, exc.reason)
                    return
                try:
                    if version != PROTOCOL_VERSION:
                        raise ProtocolError(ERR_VERSION,
                                            f"server speaks version {PROTOCOL_VERSION}, got {version}")
                    if msg_type == MSG_PHI_REQUEST:
                        if payload:
                            raise ProtocolError(ERR_MALFORMED, "set-up request with a payload")
                        conn.sendall(protocol.pack_phi_response(
                            list(chain.from_iterable(self._enc_phi))))
                        continue
                    if msg_type != MSG_EVAL_REQUEST:
                        raise ProtocolError(ERR_MALFORMED, f"unexpected message type {msg_type:#x}")
                    seq, rest = protocol.split_sequence(payload)
                    enc_xi = protocol.parse_counted_ciphertexts(rest, protocol.REQUEST_COUNT)
                    products = enc_eval(self._enc_phi, enc_xi, self._p)
                    flat = list(chain.from_iterable(products))
                    conn.sendall(protocol.pack_eval_response(flat, seq))
                except ProtocolError as exc:
                    self._send_error(conn, exc.code, exc.reason)
                    return
                except Exception as exc:  # pragma: no cover - defensive
                    self._send_error(conn, ERR_INTERNAL, repr(exc))
                    return

    @staticmethod
    def _send_error(conn: socket.socket, code: int, reason: str) -> None:
        # Drain unread input before closing: closing with pending receive data
        # resets the connection and can destroy the error frame in flight.
        try:
            conn.sendall(protocol.pack_error(code, reason))
            conn.shutdown(socket.SHUT_WR)
            conn.settimeout(0.2)
            while conn.recv(4096):
                pass
        except OSError:
            pass

    def stop(self) -> None:
        """Stop accepting, end every open session, and join their threads."""
        self._stop.set()
        with self._lock:
            sessions = list(self._sessions.items())
        # shutdown, unlike close, wakes a thread blocked in accept() or recv()
        for sock in (self._sock, *(conn for conn, _ in sessions)):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self._sock.close()
        for t in (self._accept_thread, *(t for _, t in sessions)):
            if t is not None:
                t.join(timeout=1.0)

    def __enter__(self) -> "ControllerService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class DeviceSession:
    """Client session: fetches Enc(Phi), then sends encrypted xi vectors and
    receives the c2 of each product.

    `seq` is the sequence number of the next step request. It starts at 0
    and wraps at 2^32; a reply must carry its request's number.
    """

    def __init__(self, address: tuple[str, int], timeout: float = DEFAULT_TIMEOUT):
        self._sock = socket.create_connection(address, timeout=max(timeout, 0.05))
        self._sock.settimeout(timeout)
        self.seq = 0

    def _exchange(self, frame: bytes, reply_type: int) -> bytes:
        """Send one frame and return the payload of its reply, which must be `reply_type`."""
        self._sock.sendall(frame)
        try:
            msg_type, version, payload = protocol.read_frame(self._sock)
        except socket.timeout:
            raise TimeoutError("controller service response deadline exceeded") from None
        if msg_type == MSG_ERROR:
            raise protocol.parse_error(payload)
        if version != PROTOCOL_VERSION:
            raise ProtocolError(ERR_VERSION, f"device speaks {PROTOCOL_VERSION}, got {version}")
        if msg_type != reply_type:
            raise ProtocolError(ERR_MALFORMED, f"unexpected message type {msg_type:#x}")
        return payload

    def fetch_enc_phi(self) -> list[list[Ciphertext]]:
        """Set-up: the service's Enc(Phi), 5 rows of 18 ciphertexts."""
        try:
            payload = self._exchange(protocol.pack_phi_request(), MSG_PHI_RESPONSE)
            flat = protocol.parse_counted_ciphertexts(payload, protocol.RESPONSE_COUNT)
        except BaseException:
            self.close()
            raise
        return [flat[i * 18:(i + 1) * 18] for i in range(5)]

    def eval(self, enc_xi: list[Ciphertext]) -> list[list[int]]:
        """One round trip; returns the c2 of each product, 5 rows of 18.

        Any failure closes the session, so a late reply can never be read
        as the answer to a later request; a later call raises OSError. A
        reply with another sequence number than the request's raises
        ReplyIntegrityError naming both.
        """
        seq = self.seq
        self.seq = (seq + 1) % SEQUENCE_MODULUS
        try:
            payload = self._exchange(protocol.pack_eval_request(enc_xi, seq), MSG_EVAL_RESPONSE)
            got, rest = protocol.split_sequence(payload)
            if got != seq:
                raise ReplyIntegrityError(
                    f"reply carries sequence number {got}, the request {seq}; "
                    f"the reply was replayed or reordered")
            flat = protocol.parse_counted_integers(rest, protocol.RESPONSE_COUNT)
        except BaseException:
            self.close()
            raise
        return [flat[i * 18:(i + 1) * 18] for i in range(5)]

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "DeviceSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
