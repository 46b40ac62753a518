"""Length-prefixed binary framing for the encrypted-controller service.

Frame layout (all integers big-endian):

    4 bytes   frame length N (bytes that follow)
    1 byte    message type
    2 bytes   protocol version
    N-3 bytes payload

Payloads (protocol version 3):
    EVAL_REQUEST : 4-byte sequence number, 2-byte count, `count` ciphertexts
    EVAL_RESPONSE: the request's sequence number, 2-byte count, then the c2
                   of each product (row-major 5x18)
    PHI_REQUEST  : empty (set-up: ask for Enc(Phi))
    PHI_RESPONSE : 2-byte count, then Enc(Phi) as `count` ciphertexts (row-major 5x18)
    ERROR        : 1-byte code, 2-byte message length, UTF-8 message

A ciphertext is c1 then c2. Every integer of a payload is big-endian and
of one width shared by the whole payload: the narrowest that holds its
largest integer. The receiver gets the width from the payload length, so
one length check validates the payload. A step reply carries only the c2
of each product, because Dec+ needs no c1 (see `crypto`); the device
refuses a reply whose sequence number is not its request's, so a replayed
or reordered reply is refused. With a 64-bit key a step request frame is
301 bytes, a step reply 733, and the set-up reply 1449.

The codec makes no Python-level call per integer: a payload splits into
fields with one `struct.unpack_from`, the fields become integers through
`map(int.from_bytes, ...)`, and packing joins `map(int.to_bytes, ...)`.
"""

from __future__ import annotations

import socket
import struct
from itertools import chain, repeat

from .crypto import Ciphertext

PROTOCOL_VERSION = 3

MSG_EVAL_REQUEST = 0x01
MSG_EVAL_RESPONSE = 0x02
MSG_PHI_REQUEST = 0x03
MSG_PHI_RESPONSE = 0x04
MSG_ERROR = 0x7F

ERR_MALFORMED = 1
ERR_VERSION = 2
ERR_COUNT = 3
ERR_INTERNAL = 4

ERROR_NAMES = {
    ERR_MALFORMED: "malformed frame",
    ERR_VERSION: "protocol version mismatch",
    ERR_COUNT: "unexpected ciphertext count",
    ERR_INTERNAL: "internal service error",
}

MAX_FRAME = 1 << 20

REQUEST_COUNT = 18
RESPONSE_COUNT = 90

SEQUENCE_MODULUS = 1 << 32  # a 4-byte sequence number wraps here


class ProtocolError(Exception):
    """Framing or session failure with a wire-level error code."""

    def __init__(self, code: int, reason: str):
        super().__init__(f"[{code}:{ERROR_NAMES.get(code, 'error')}] {reason}")
        self.code = code
        self.reason = reason


def pack_integers(ints) -> bytes:
    ints = list(ints)
    width = (max(ints, default=1).bit_length() + 7) // 8
    return b"".join(map(int.to_bytes, ints, repeat(width), repeat("big")))


def pack_ciphertexts(cts: list[Ciphertext]) -> bytes:
    return pack_integers(chain.from_iterable(cts))


def pack_frame(msg_type: int, payload: bytes, version: int = PROTOCOL_VERSION) -> bytes:
    body = struct.pack(">BH", msg_type, version) + payload
    return struct.pack(">I", len(body)) + body


def pack_eval_request(cts: list[Ciphertext], seq: int = 0) -> bytes:
    return pack_frame(MSG_EVAL_REQUEST, struct.pack(">IH", seq, len(cts)) + pack_ciphertexts(cts))


def pack_eval_response(c2s: list[int], seq: int = 0) -> bytes:
    return pack_frame(MSG_EVAL_RESPONSE, struct.pack(">IH", seq, len(c2s)) + pack_integers(c2s))


def pack_phi_request() -> bytes:
    return pack_frame(MSG_PHI_REQUEST, b"")


def pack_phi_response(cts: list[Ciphertext]) -> bytes:
    return pack_frame(MSG_PHI_RESPONSE, struct.pack(">H", len(cts)) + pack_ciphertexts(cts))


def pack_error(code: int, reason: str) -> bytes:
    msg = reason.encode("utf-8")[:1000]
    return pack_frame(MSG_ERROR, struct.pack(">BH", code, len(msg)) + msg)


def split_sequence(payload: bytes) -> tuple[int, bytes]:
    """(sequence number, rest) of a step request or reply payload."""
    if len(payload) < 4:
        raise ProtocolError(ERR_MALFORMED, "missing sequence number")
    (seq,) = struct.unpack_from(">I", payload, 0)
    return seq, payload[4:]


def _parse_counted(payload: bytes, expected: int, per_item: int):
    """Iterator over the `expected * per_item` integers of a counted payload."""
    if len(payload) < 2:
        raise ProtocolError(ERR_MALFORMED, "missing ciphertext count")
    (count,) = struct.unpack_from(">H", payload, 0)
    if count != expected:
        raise ProtocolError(ERR_COUNT, f"expected {expected} ciphertexts, got {count}")
    width, extra = divmod(len(payload) - 2, per_item * count)
    if extra or not width:
        raise ProtocolError(ERR_MALFORMED, f"{len(payload) - 2} bytes do not hold "
                                           f"{count} ciphertexts of one width")
    fields = struct.unpack_from(f"{width}s" * (per_item * count), payload, 2)
    return map(int.from_bytes, fields, repeat("big"))


def parse_counted_ciphertexts(payload: bytes, expected: int) -> list[Ciphertext]:
    ints = _parse_counted(payload, expected, 2)
    # tuple.__new__ builds each Ciphertext without NamedTuple's Python-level __new__
    return list(map(tuple.__new__, repeat(Ciphertext), zip(ints, ints)))


def parse_counted_integers(payload: bytes, expected: int) -> list[int]:
    """The c2 halves of a step reply, after its sequence number."""
    return list(_parse_counted(payload, expected, 1))


def parse_error(payload: bytes) -> ProtocolError:
    if len(payload) < 3:
        return ProtocolError(ERR_MALFORMED, "truncated error frame")
    code, n = struct.unpack_from(">BH", payload, 0)
    reason = payload[3:3 + n].decode("utf-8", errors="replace")
    return ProtocolError(code, reason)


def recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    got = 0
    while got < n:
        chunk = sock.recv(n - got)
        if not chunk:
            raise ConnectionError("peer closed the connection")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> tuple[int, int, bytes]:
    """Read one frame; returns (msg_type, version, payload)."""
    (length,) = struct.unpack(">I", recv_exact(sock, 4))
    if length < 3 or length > MAX_FRAME:
        raise ProtocolError(ERR_MALFORMED, f"frame length {length} out of bounds")
    body = recv_exact(sock, length)
    msg_type, version = struct.unpack_from(">BH", body, 0)
    return msg_type, version, body[3:]
