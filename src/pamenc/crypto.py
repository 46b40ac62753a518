"""Multiplicative-homomorphic ElGamal with signed fixed-point encoding.

The group is the full multiplicative group mod a safe prime, with signed
values embedded as centered representatives in (-p/2, p/2). Zero cannot be
represented multiplicatively, so it encodes as 1 (value 1/delta after
decoding). One controller step encrypts the 18 xi entries, multiplies them
elementwise against Enc(Phi), and decrypts/decodes the 90 products before
summing rows in plaintext (Dec+).

Every encryption draws its nonces as pads (g^k, h^k) (`draw_pads`), so an
entry takes one multiplication; a step's pads are drawn between steps, and
Enc(Phi) takes 90. Drawing runs no power either: g and h are fixed per key,
so g^k and h^k are products of rows of the key's `FixedBase` tables, built
on first use. `encrypt`, two powers an entry, stays as the reference.
Product (i, j) has c1 = c1(Phi_ij) g^k and decrypts as
c2 (c1(Phi_ij)^-s h^-k). The mask c1(Phi_ij)^-s is fixed for the session:
`PhiMasks` computes it at setup from Enc(Phi), one power per nonzero entry
of Phi, and checks that each decrypts its entry. So the decryption factor
of every product is known before its reply arrives, and no one needs a
product's c1: `enc_eval` computes only the c2 halves, c2(Phi_ij) c2(xi_j),
`PhiMasks.prepare` computes the factors between steps, a row of (j,
c1_ij^-s) pairs per row of Phi, with all 18 h^-k from one modular inverse
(`_inverses`), and online Dec+ decrypts a product in one multiplication.
`hom_mul` and `power_factors` keep the full products and decryption by
powers as the reference.

Key generation draws safe-prime candidates p = 2q+1 from `Drbg`, a SHA-256
counter-mode stream. Trial division is C-level gcds, not a Python loop over
the 303 sieve primes below 2000: one small gcd of q mod W against the wheel
W of the primes up to 53 ends most candidates, and a survivor must be
coprime to the product of all the sieve primes before Miller-Rabin runs
(`is_probable_prime` does its own trial division the same way).

This is a demonstration-scale construction: 64-bit keys and a full-group
embedding (which leaks quadratic residuosity) are NOT production
cryptography. Key sizes and scaling follow the evaluated real-time setup.
"""

from __future__ import annotations

import hashlib
import math
import secrets
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from pathlib import Path
from typing import NamedTuple

from .params import _check_keys, parse_kv_text

# Deterministic Miller-Rabin base set: exact for n < 3.317e24 (~81 bits).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981

# Search limits: safe-prime candidates per keygen, keys per find_session_key.
_KEYGEN_ATTEMPTS = 500_000
_SESSION_KEY_TRIES = 64


def _primes_below(n: int) -> tuple[int, ...]:
    """Sieve of Eratosthenes; the result is the trial divisors run before Miller-Rabin."""
    composite: set[int] = set()
    for i in range(2, math.isqrt(n - 1) + 1):
        if i not in composite:
            composite.update(range(i * i, n, i))
    return tuple(i for i in range(2, n) if i not in composite)


_SMALL_PRIMES = _primes_below(2000)
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)
# n >= 2000 has a sieve prime as a factor iff gcd(n, _SIEVE_PRODUCT) > 1: one C-level gcd
_SIEVE_PRODUCT = math.prod(_SMALL_PRIMES)
# The primes up to 53: q % _WHEEL is below 2^65, and q, 2q+1 share a factor with
# _WHEEL iff q % _WHEEL, 2(q % _WHEEL)+1 do, so most keygen candidates end on one small gcd
_WHEEL = math.prod(p for p in _SMALL_PRIMES if p <= 53)


class Drbg:
    """Seedable deterministic byte stream (SHA-256 counter mode).

    With seed=None it defers to the OS CSPRNG. The deterministic mode exists
    for reproducible keys, nonces, and test vectors.
    """

    def __init__(self, seed: int | bytes | None = None):
        if seed is None:
            self._state = None
        else:
            if isinstance(seed, int):
                seed = (seed.to_bytes(max(32, (seed.bit_length() + 7) // 8), "big")
                        if seed >= 0 else str(seed).encode())
            self._state = hashlib.sha256(b"pamenc-drbg:" + seed).digest()
            self._counter = 0

    def randbytes(self, n: int) -> bytes:
        """The next n bytes: whole SHA-256 blocks, one per counter value, cut to n."""
        if self._state is None:
            return secrets.token_bytes(n)
        c = self._counter
        blocks = -(-n // 32)  # n = 0 takes none
        self._counter = c + blocks
        if blocks == 1:
            return hashlib.sha256(self._state + c.to_bytes(8, "big")).digest()[:n]
        state, sha256 = self._state, hashlib.sha256
        return b"".join([sha256(state + i.to_bytes(8, "big")).digest()
                         for i in range(c, c + blocks)])[:n]

    def randbits(self, k: int) -> int:
        nbytes = (k + 7) // 8
        return int.from_bytes(self.randbytes(nbytes), "big") >> (8 * nbytes - k)

    def randrange(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi) by rejection sampling."""
        if hi <= lo:
            raise ValueError("empty range")
        span = hi - lo
        k = span.bit_length()
        while True:
            v = self.randbits(k)
            if v < span:
                return lo + v


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin after trial division by the sieve primes.

    Exact below ~81 bits; above that 64 bases from Drbg(n) (error < 4^-64),
    drawn one at a time, so a composite stops drawing at its first witness.
    """
    if n < 2000:
        return n in _SMALL_PRIME_SET
    if math.gcd(n, _SIEVE_PRODUCT) != 1:
        return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def witness(a: int) -> bool:
        x = pow(a, d, n)
        if x in (1, n - 1):
            return False
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                return False
        return True

    if n < _MR_DETERMINISTIC_LIMIT:
        bases = _MR_BASES
    else:
        rng = Drbg(n)
        bases = (rng.randrange(2, n - 1) for _ in range(64))
    return not any(witness(a) for a in bases)


class Ciphertext(NamedTuple):
    c1: int
    c2: int


@dataclass(frozen=True)
class ElGamalKeys:
    """Safe-prime group (p = 2q+1), generator g, public h = g^s; s optional."""

    p: int
    g: int
    h: int
    s: int | None = None

    @property
    def bits(self) -> int:
        return self.p.bit_length()

    def public(self) -> "ElGamalKeys":
        return ElGamalKeys(p=self.p, g=self.g, h=self.h)

    @cached_property
    def tables(self) -> tuple[FixedBase, FixedBase]:
        """The `FixedBase` tables of g and h, built on first use and kept with the key."""
        return FixedBase(self.g, self.p), FixedBase(self.h, self.p)


class KeygenError(RuntimeError):
    pass


def keygen(bits: int = 64, seed: int | None = None) -> ElGamalKeys:
    """Generate a safe prime p = 2q+1 of `bits` bits, a full-group generator, and a key pair."""
    if bits < 16:
        raise ValueError("key length below the 16-bit sanity floor")
    rng = Drbg(seed)
    for _ in range(_KEYGEN_ATTEMPTS):
        q = rng.randbits(bits - 1) | (1 << (bits - 2)) | 1
        r = q % _WHEEL
        if math.gcd(r * (2 * r + 1), _WHEEL) != 1:
            continue
        p = 2 * q + 1
        # q >= 2^14 for all allowed bit lengths, so q itself is never a sieve prime
        if math.gcd(q * p, _SIEVE_PRODUCT) != 1:
            continue
        if not is_probable_prime(q):
            continue
        if not is_probable_prime(p):
            continue
        break
    else:
        raise KeygenError(f"no {bits}-bit safe prime found in {_KEYGEN_ATTEMPTS} attempts")

    # Generator of the full group: order 2q, so g works iff g^2 != 1 and g^q != 1.
    # g^2 != 1 always holds: only +-1 square to 1 mod a prime, and g is in [2, p-2].
    for _ in range(10_000):
        g = rng.randrange(2, p - 1)
        if pow(g, q, p) != 1:
            break
    else:
        raise KeygenError("generator search failed")

    s = rng.randrange(2, p - 1)  # uniform in [2, p-2]
    return ElGamalKeys(p=p, g=g, h=pow(g, s, p), s=s)


class EncodeOverflowError(OverflowError):
    pass


def encode(value: float, delta: float, p: int) -> int:
    """Signed fixed-point encode: round-half-away-from-zero, zero maps to 1."""
    scaled = value * delta
    m0 = int(math.floor(abs(scaled) + 0.5))
    if scaled < 0.0:
        m0 = -m0
    if m0 == 0:
        m0 = 1
    if 2 * abs(m0) >= p:
        raise EncodeOverflowError(f"|{value!r}*{delta!r}| exceeds the centered range of p")
    return m0 % p


def decode(m: int, delta: float, p: int) -> float:
    """Centered-representative decode: values above p/2 are negative."""
    if not 0 < m < p:
        raise ValueError("group element out of range")
    centered = m if 2 * m < p else m - p
    return centered / delta


def encrypt(m: int, keys: ElGamalKeys, rng: Drbg) -> Ciphertext:
    """ElGamal encryption with a fresh nonce from `rng`."""
    k = rng.randrange(1, keys.p - 1)
    return Ciphertext(pow(keys.g, k, keys.p), m * pow(keys.h, k, keys.p) % keys.p)


def decrypt(ct: Ciphertext, keys: ElGamalKeys) -> int:
    """m = c2 * c1^(p-1-s) mod p: one power, as c1^(p-1-s) = (c1^s)^-1 and s <= p-2."""
    if keys.s is None:
        raise ValueError("secret exponent required for decryption")
    return ct.c2 * pow(ct.c1, keys.p - 1 - keys.s, keys.p) % keys.p


def hom_mul(a: Ciphertext, b: Ciphertext, p: int) -> Ciphertext:
    """Ciphertext product; decrypts to the product of the plaintexts mod p."""
    return Ciphertext(a.c1 * b.c1 % p, a.c2 * b.c2 % p)


# ---------------------------------------------------------------------------
# Fixed-point session parameters and the overflow guard.

# Conservative per-component operating bounds for |xi| (see polyctrl.XI_NAMES):
# references, angle monomials with |theta| <= 0.5 rad margin, pressures in kPa
# (plant-clamped to 750, plus sensor-noise margin), integrator states with
# generous headroom.
DEFAULT_XI_BOUNDS = (
    16.0, 4.0, 0.5, 0.5, 10.0, 0.25, 0.25, 5.0, 0.125, 0.125, 2.5,
    760.0, 380.0, 760.0, 380.0, 1.0, 400.0, 400.0,
)


@dataclass(frozen=True)
class EncodingParams:
    """Scaling factors for xi and Phi plus declared per-component xi bounds."""

    delta_xi: float = 1.0e8
    delta_phi: float = 1.0e8
    xi_bounds: tuple[float, ...] = DEFAULT_XI_BOUNDS

    def __post_init__(self):
        if self.delta_xi <= 0.0 or self.delta_phi <= 0.0:
            raise ValueError("scaling factors must be positive")
        if len(self.xi_bounds) != 18 or any(b <= 0.0 for b in self.xi_bounds):
            raise ValueError("xi_bounds must be 18 positive values")


class OverflowGuardError(ValueError):
    pass


def check_finite(phi) -> None:
    """Raise ValueError naming Phi's first non-finite entry (1-based, row-major)."""
    import numpy as np

    bad = np.argwhere(~np.isfinite(phi))
    if len(bad):
        i, j = bad[0]
        raise ValueError(f"Phi[{i+1}][{j+1}] = {phi[i][j]} is not finite")


def check_overflow_guard(params: EncodingParams, phi, p: int):
    """Validate that every Phi[i][j]*xi[j] product stays inside (-p/2, p/2).

    Uses the declared xi bounds; the +1 terms cover rounding and the
    zero-to-1 substitution. Returns the (5,18) array of decoded product
    bounds that dec_plus enforces at runtime.
    """
    import numpy as np

    phi = np.asarray(phi, dtype=float)
    if phi.shape != (5, 18):
        raise ValueError("Phi must be 5x18")
    check_finite(phi)  # a NaN would pass the comparison below
    bounds = np.empty_like(phi)
    for i in range(5):
        for j in range(18):
            m_phi = abs(phi[i, j]) * params.delta_phi + 1.0
            m_xi = params.xi_bounds[j] * params.delta_xi + 1.0
            if 2.0 * m_phi * m_xi >= float(p):
                raise OverflowGuardError(
                    f"Phi[{i+1}][{j+1}] with |xi_{j+1}| <= {params.xi_bounds[j]} "
                    f"overflows the centered range: need delta_xi*delta_phi product "
                    f"{m_phi * m_xi:.3e} < p/2 = {p/2:.3e}")
            bounds[i, j] = m_phi * m_xi / (params.delta_xi * params.delta_phi)
    return bounds


def find_session_key(phi, params: EncodingParams | None = None, bits: int = 64,
                     seed: int | None = 0) -> ElGamalKeys:
    """First key (seed, seed+1, ...) whose modulus passes the overflow guard.

    With the default scaling the largest Phi*xi products need p in the upper
    part of the 64-bit range, so a fraction of freshly generated 64-bit keys
    is correctly rejected by the guard; this wraps the retry loop.
    """
    params = params or EncodingParams()
    for i in range(_SESSION_KEY_TRIES):
        keys = keygen(bits=bits, seed=None if seed is None else seed + i)
        try:
            check_overflow_guard(params, phi, keys.p)
        except OverflowGuardError:
            continue
        return keys
    raise KeygenError(f"no guard-passing {bits}-bit key in {_SESSION_KEY_TRIES} attempts")


class Pad(NamedTuple):
    """One nonce k drawn ahead: g^k and h^k mod p."""

    g_k: int
    h_k: int


class FixedBase:
    """base^e mod p for a base fixed in advance, by table lookup: no modular power.

    Row i holds base^(d 256^i) for every 8-bit digit d, one row per byte of
    p, so base^e is the product of one entry per base-256 digit of e: at most
    8 multiplications at 64 bits (fixed-base windowing; Brickell, Gordon,
    McCurley and Wilson, EUROCRYPT '92; HAC 14.6.3). An exponent outside
    [0, 256^rows), a range that holds every exponent below p, raises
    OverflowError. A key keeps its g and h tables, built on first use.
    """

    def __init__(self, base: int, p: int):
        self.p = p
        self._rows = []
        b = base % p
        for _ in range((p.bit_length() + 7) // 8):
            row = [1]
            for _ in range(255):
                row.append(row[-1] * b % p)
            self._rows.append(row)
            b = row[-1] * b % p  # b^256, the next row's base

    def pow(self, e: int) -> int:
        p = self.p
        r = 1
        for row, d in zip(self._rows, e.to_bytes(len(self._rows), "little")):
            r = r * row[d] % p
        return r


def _inverses(xs: list[int], p: int) -> list[int]:
    """Every x^-1 mod p from one modular inverse (Montgomery's batch trick).

    Prefix products x_0 ... x_i, one inverse of the last, then back-
    substitution: x_i^-1 = (x_0 ... x_i)^-1 (x_0 ... x_(i-1)).
    """
    prefix = [1]
    for x in xs:
        prefix.append(prefix[-1] * x % p)
    inv = pow(prefix.pop(), -1, p)
    out = []
    for x, before in zip(reversed(xs), reversed(prefix)):
        out.append(inv * before % p)
        inv = inv * x % p
    out.reverse()
    return out


def draw_pads(n: int, keys: ElGamalKeys, rng: Drbg) -> list[Pad]:
    """n pads, one nonce each from `rng`, in order.

    g^k and h^k come off the key's FixedBase `tables`, so no modular power runs.
    """
    g_table, h_table = keys.tables
    ks = [rng.randrange(1, keys.p - 1) for _ in range(n)]
    return [Pad(g_table.pow(k), h_table.pow(k)) for k in ks]


def enc_vector(values, delta: float, keys: ElGamalKeys, rng: Drbg | None = None, *,
               pads: list[Pad] | None = None) -> list[Ciphertext]:
    """Encode-then-encrypt a sequence of reals.

    Each entry takes its pad's nonce: (g^k, m h^k), one multiplication and
    no power. The pads default to a draw from `rng`: `encrypt`'s nonces.
    """
    if pads is None:
        pads = draw_pads(len(values), keys, rng)
    p = keys.p
    return [Ciphertext(pad.g_k, encode(float(v), delta, p) * pad.h_k % p)
            for v, pad in zip(values, pads, strict=True)]


def enc_matrix(phi, params: EncodingParams, keys: ElGamalKeys,
               rng: Drbg) -> list[list[Ciphertext]]:
    """Row-major encode-then-encrypt of the 5x18 controller matrix.

    Its 90 pads are drawn from `rng` in row-major order: the ciphertexts of
    `encrypt` entry by entry, with one modular inverse and no power.
    """
    pads = iter(draw_pads(sum(len(row) for row in phi), keys, rng))
    return [enc_vector(row, params.delta_phi, keys, pads=list(islice(pads, len(row))))
            for row in phi]


def enc_eval(enc_phi: list[list[Ciphertext]], enc_xi: list[Ciphertext],
             p: int) -> list[list[int]]:
    """The c2 halves of the 90 products Enc(Phi[i][j]) * Enc(xi[j]): c2(Phi_ij) c2(xi_j) mod p.

    That is `hom_mul(a, x, p).c2` for each product. Dec+ decrypts a product
    from its c2 alone (see `PhiMasks`), so no c1 is computed; no additions.
    """
    if any(len(row) != len(enc_xi) for row in enc_phi):
        raise ValueError("column count mismatch")
    x2 = [ct[1] for ct in enc_xi]
    return [[ct[1] * x % p for ct, x in zip(row, x2)] for row in enc_phi]


class DecodeOverflowError(RuntimeError):
    pass


class ReplyIntegrityError(RuntimeError):
    """A reply is not what the service owes: an Enc(Phi) of another Phi, a
    c1 or c2 outside [1, p), or a step reply with another sequence number."""


def _check_in_group(values, i: int, name: str, p: int) -> None:
    """Raise ReplyIntegrityError naming the first of row i's values outside [1, p)."""
    if min(values) < 1 or max(values) >= p:
        j = next(j for j, v in enumerate(values) if not 0 < v < p)
        raise ReplyIntegrityError(
            f"product ({i+1},{j+1}): {name} = {values[j]} is outside [1, p); the reply was altered")


def power_factors(products: list[list[Ciphertext]], keys: ElGamalKeys,
                  zero_mask=None) -> list[list[tuple[int, int]]]:
    """Decryption by powers: a factor c1^(p-1-s) = c1^-s, one power, per product decrypted.

    This is the reference the prepared Dec+ is tested against. It takes the
    full products, `hom_mul` of each pair, for their c1.
    `zero_mask[i][j]` marks an entry of Phi that is exactly zero, whose
    product is not decrypted (see `PhiMasks`); without a mask every product
    is decrypted. A c1 outside [1, p) raises ReplyIntegrityError: 0 has no
    inverse.
    """
    p, e = keys.p, keys.p - 1 - keys.s
    factors = []
    for i, row in enumerate(products):
        _check_in_group([ct.c1 for ct in row], i, "c1", p)
        factors.append([(j, pow(ct.c1, e, p)) for j, ct in enumerate(row)
                        if zero_mask is None or not zero_mask[i][j]])
    return factors


class PhiMasks:
    """Dec+'s session constants, computed at setup from Enc(Phi).

    Product (i, j) of a step whose xi_j used nonce k has c1 = c1(Phi_ij) g^k
    and c1^-s = mask_ij h^-k; mask_ij = c1(Phi_ij)^-s is fixed for the
    session. A mask takes one power, for the nonzero entries
    of `phi` only: a zero entry is encoded as 1, and its product's residue
    xi_j/delta_phi would build a standing tracking offset through the
    integrator state rows. Over a network `enc_phi` is the service's: a c1
    or c2 outside [1, p), or a mask that does not decrypt its entry to
    encode(Phi_ij), raises ReplyIntegrityError before any step. `prepare`
    turns the masks and a step's pads into that step's factor rows before
    its reply arrives: the pads' h^-k, then a (j, mask_ij h^-k) pair per
    mask, 71 multiplications.
    """

    def __init__(self, enc_phi: list[list[Ciphertext]], phi, params: EncodingParams,
                 keys: ElGamalKeys):
        p, e = keys.p, keys.p - 1 - keys.s
        self.mask = []
        for i, (row, phi_row) in enumerate(zip(enc_phi, phi, strict=True)):
            c1s, c2s = zip(*row)
            _check_in_group(c1s, i, "c1", p)
            _check_in_group(c2s, i, "c2", p)
            self.mask.append([(j, pow(c1s[j], e, p)) for j, v in enumerate(phi_row) if v != 0.0])
            for j, mask in self.mask[-1]:
                if c2s[j] * mask % p != encode(phi_row[j], params.delta_phi, p):
                    raise ReplyIntegrityError(
                        f"Enc(Phi)[{i+1}][{j+1}] does not decrypt to Phi[{i+1}][{j+1}] = "
                        f"{float(phi_row[j])!r}; the service holds another Phi")

    def prepare(self, pads: list[Pad], p: int) -> list[list[tuple[int, int]]]:
        """The step's decryption factors; the h^-k of all its pads take one modular inverse."""
        h_inv_k = _inverses([pad.h_k for pad in pads], p)
        return [[(j, m * h_inv_k[j] % p) for j, m in row] for row in self.mask]


def dec_plus(products: list[list[int]], params: EncodingParams, keys: ElGamalKeys,
             bounds=None, *, prepared: list[list[tuple[int, int]]]) -> list[float]:
    """Decrypt and decode the products' c2 halves, then sum each row in plaintext.

    `products` holds the c2 of each product, as `enc_eval` returns them;
    `prepared` a row of (j, c1_ij^-s) pairs per row, made ahead of the reply
    by `PhiMasks.prepare` or by powers by `power_factors`. Dec+ decrypts each
    product it has a factor for by one multiplication. Summation is
    left-to-right by column index for determinism. A c2 outside [1, p)
    raises ReplyIntegrityError: no honest reply holds one. When the
    per-entry `bounds` from the overflow guard are supplied, any decoded
    product outside its bound raises DecodeOverflowError. That happens
    through modular wraparound, from a scale misconfiguration, or from a
    c2 that is not this step's: a stale or altered c2 decrypts to a value
    spread over the whole group (see README, "Known limits").
    """
    p = keys.p
    for i, c2s in enumerate(products):  # the whole reply is checked before any product is decoded
        _check_in_group(c2s, i, "c2", p)
    combined = params.delta_xi * params.delta_phi
    psi = []
    for i, (c2s, row_factors) in enumerate(zip(products, prepared, strict=True)):
        total = 0.0
        for j, factor in row_factors:
            val = decode(c2s[j] * factor % p, combined, p)
            if bounds is not None and abs(val) > bounds[i][j] * (1.0 + 1e-12):
                raise DecodeOverflowError(
                    f"decoded product ({i+1},{j+1}) = {val!r} exceeds its bound "
                    f"{bounds[i][j]!r}: the reply was altered or replayed, or the "
                    f"delta/key-size configuration is wrong")
            total += val
        psi.append(total)
    return psi


# ---------------------------------------------------------------------------
# Key files: hexadecimal `name = value` lines. The .pub file omits s.

def save_keys(prefix: str | Path, keys: ElGamalKeys) -> tuple[Path, Path]:
    if keys.s is None:
        raise ValueError("need the secret part to write a key pair")
    prefix = Path(prefix)
    pub = prefix.with_suffix(".pub")
    sec = prefix.with_suffix(".sec")
    base = f"p = {keys.p:x}\ng = {keys.g:x}\nh = {keys.h:x}\n"
    pub.write_text(base)
    sec.write_text(base + f"s = {keys.s:x}\n")
    return pub, sec


def load_keys(path: str | Path) -> ElGamalKeys:
    """Read and check a key file; a bad line or an unknown or missing name is named."""
    fields = parse_kv_text(Path(path).read_text(), convert=lambda v: int(v, 16))
    _check_keys(fields, {"p", "g", "h"} | ({"s"} & fields.keys()), f"key file {path}")
    keys = ElGamalKeys(p=fields["p"], g=fields["g"], h=fields["h"], s=fields.get("s"))
    if not (is_probable_prime(keys.p) and is_probable_prime(keys.p // 2)):
        raise ValueError("p is not a safe prime p = 2q+1")
    if not 1 < keys.g < keys.p:
        raise ValueError("generator out of range")
    if not 1 < keys.h < keys.p:
        raise ValueError("public element h out of range: need 1 < h < p")
    if keys.s is not None and not (0 < keys.s < keys.p - 1 and pow(keys.g, keys.s, keys.p) == keys.h):
        raise ValueError("inconsistent key file: need 0 < s < p-1 and h = g^s mod p")
    return keys
