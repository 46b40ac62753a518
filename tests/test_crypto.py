"""Key generation, fixed-point encoding, ElGamal, and the Dec+ pipeline."""

import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pamenc import (
    DEFAULT_GAINS,
    DEFAULT_PAM,
    Ciphertext,
    Drbg,
    EncodingParams,
    build_phi,
    check_overflow_guard,
    dec_plus,
    decode,
    decrypt,
    enc_eval,
    enc_matrix,
    enc_vector,
    encode,
    encrypt,
    fit_controller_coeffs,
    hom_mul,
    keygen,
    load_keys,
    save_keys,
)
from pamenc.crypto import (
    DecodeOverflowError,
    EncodeOverflowError,
    FixedBase,
    OverflowGuardError,
    Pad,
    PhiMasks,
    ReplyIntegrityError,
    _inverses,
    draw_pads,
    find_session_key,
    is_probable_prime,
    power_factors,
)


@pytest.fixture(scope="module")
def keys64():
    return keygen(bits=64, seed=2024)


@pytest.fixture(scope="module")
def keys32():
    return keygen(bits=32, seed=7)


def hom_products(enc_phi, enc_xi, p):
    """The full products, c1 and c2, by `hom_mul`: the input of decryption by powers."""
    return [[hom_mul(a, x, p) for a, x in zip(row, enc_xi)] for row in enc_phi]


def c2_of(products):
    """The c2 halves of full products: what `enc_eval` returns and Dec+ decrypts."""
    return [[ct.c2 for ct in row] for row in products]


class TestKeygen:
    def test_deterministic(self):
        a = keygen(bits=16, seed=5)
        b = keygen(bits=16, seed=5)
        assert (a.p, a.g, a.h, a.s) == (b.p, b.g, b.h, b.s)

    def test_safe_prime_structure(self, keys64):
        p = keys64.p
        assert p.bit_length() == 64
        assert is_probable_prime(p)
        assert is_probable_prime((p - 1) // 2)

    def test_generator_order(self, keys64):
        p, g = keys64.p, keys64.g
        assert pow(g, (p - 1) // 2, p) != 1
        assert pow(g, 2, p) != 1
        assert pow(g, p - 1, p) == 1

    def test_public_value(self, keys64):
        # independent square-and-multiply oracle
        def modexp(base, exp, mod):
            result, cur = 1, base % mod
            while exp:
                if exp & 1:
                    result = result * cur % mod
                cur = cur * cur % mod
                exp >>= 1
            return result

        assert keys64.h == modexp(keys64.g, keys64.s, keys64.p)

    def test_primality_against_trial_division_and_known_large(self):
        naive = [n for n in range(3000) if n > 1 and all(n % d for d in range(2, n))]
        assert [n for n in range(3000) if is_probable_prime(n)] == naive
        # above the deterministic-base limit: Mersenne primes and known composites
        for n in (2**89 - 1, 2**107 - 1, 2**127 - 1):
            assert is_probable_prime(n)
        for n in ((2**89 - 1) * (2**61 - 1), 2**128 + 1, (2**89 - 1) ** 2):
            assert not is_probable_prime(n)

    def test_primality_above_256_bits(self):
        # the random bases come from Drbg(n), which must take an n of any size
        assert is_probable_prime(2**521 - 1)
        assert not is_probable_prime((2**521 - 1) * (2**127 - 1))

    def test_512_bit_key_file_roundtrip(self, tmp_path):
        keys = keygen(bits=512, seed=2)
        assert keys.bits == 512
        pub, sec = save_keys(tmp_path / "key", keys)
        assert load_keys(sec) == keys
        assert load_keys(pub) == keys.public()

    def test_bit_floor(self):
        with pytest.raises(ValueError):
            keygen(bits=8)

    def test_key_file_roundtrip(self, keys64, tmp_path):
        pub, sec = save_keys(tmp_path / "key", keys64)
        loaded_pub = load_keys(pub)
        loaded_sec = load_keys(sec)
        assert loaded_pub.s is None
        assert (loaded_pub.p, loaded_pub.g, loaded_pub.h) == (keys64.p, keys64.g, keys64.h)
        assert loaded_sec.s == keys64.s

    def test_key_file_consistency_check(self, keys64, tmp_path):
        _, sec = save_keys(tmp_path / "key", keys64)
        text = sec.read_text().replace(f"{keys64.s:x}", f"{keys64.s - 1:x}")
        bad = tmp_path / "bad.sec"
        bad.write_text(text)
        with pytest.raises(ValueError, match="inconsistent"):
            load_keys(bad)

    def test_key_file_secret_out_of_range(self, keys64, tmp_path):
        # s + p - 1 still gives h = g^s, but decrypt's one power needs s <= p-2
        _, sec = save_keys(tmp_path / "key", keys64)
        text = sec.read_text().replace(f"{keys64.s:x}", f"{keys64.s + keys64.p - 1:x}")
        bad = tmp_path / "bad.sec"
        bad.write_text(text)
        with pytest.raises(ValueError, match="0 < s < p-1"):
            load_keys(bad)

    @pytest.mark.parametrize("field, value, match", [
        ("p", 2**62 + 1, "safe prime"),  # composite
        ("p", 2**61 - 1, "safe prime"),  # prime, but (p-1)/2 is not
        ("h", 0, "h out of range"),
        ("h", 1, "h out of range"),
    ], ids=["composite-p", "unsafe-prime-p", "h-0", "h-1"])
    def test_public_key_file_malformed(self, keys64, tmp_path, field, value, match):
        # serve reads only the .pub file, so its public part must be checked on its own
        pub, _ = save_keys(tmp_path / "key", keys64)
        text = pub.read_text().replace(f"{field} = {getattr(keys64, field):x}",
                                       f"{field} = {value:x}")
        bad = tmp_path / "bad.pub"
        bad.write_text(text)
        with pytest.raises(ValueError, match=match):
            load_keys(bad)

    @pytest.mark.parametrize("edit, match", [
        (lambda text: text + "q = 5\n", r"unknown keys \['q'\]"),
        (lambda text: text + "h = 2\n", r"line 4: duplicate key 'h'"),
        (lambda text: text.replace("g = ", "g "), r"line 2: expected 'name = value'"),
    ], ids=["stray-q", "second-h", "no-equals"])
    def test_key_file_bad_line_is_named(self, keys64, tmp_path, edit, match):
        # key files follow the parameter files' line rules, so no line is dropped or
        # overridden silently, and the error names the line rather than int()'s literal
        pub, _ = save_keys(tmp_path / "key", keys64)
        bad = tmp_path / "bad.pub"
        bad.write_text(edit(pub.read_text()))
        with pytest.raises(ValueError, match=match):
            load_keys(bad)


class TestEncodeDecode:
    def test_unit_value(self, keys64):
        assert encode(1.0, 1e8, keys64.p) == 10**8

    def test_zero_substitution(self, keys64):
        m = encode(0.0, 1e8, keys64.p)
        assert m == 1
        assert decode(m, 1e8, keys64.p) == 1e-8

    def test_negative_value(self, keys64):
        assert encode(-2.5, 1e8, keys64.p) == keys64.p - 250_000_000

    def test_minus_one_element(self, keys64):
        assert decode(keys64.p - 1, 1e8, keys64.p) == pytest.approx(-1e-8)

    def test_half_away_rounding(self, keys64):
        assert encode(1.5, 1.0, keys64.p) == 2
        assert encode(-1.5, 1.0, keys64.p) == keys64.p - 2
        assert encode(2.5, 1.0, keys64.p) == 3

    @given(st.floats(-1e6, 1e6))
    def test_roundtrip_resolution(self, v):
        p = 2 * 9223372036854775783 + 1  # fixed large odd modulus is fine here
        # near zero the 1-substitution (always +1) caps the error at 1/delta + |v|
        tol = max(0.5 / 1e8 + 1e-12 * abs(v), 1.0 / 1e8 + abs(v))
        assert abs(decode(encode(v, 1e8, p), 1e8, p) - v) <= tol

    def test_signed_fixed_point_against_rational_oracle(self, keys64):
        from fractions import Fraction
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = float(rng.uniform(-1e5, 1e5))
            m = encode(v, 1e8, keys64.p)
            centered = m if 2 * m < keys64.p else m - keys64.p
            exact = Fraction(v) * Fraction(10**8)
            # round-half-away-from-zero on the exact rational
            sign = 1 if exact >= 0 else -1
            want = sign * int(abs(exact) + Fraction(1, 2))
            assert centered == (want if want != 0 else 1)

    def test_overflow_rejected(self, keys32):
        with pytest.raises(EncodeOverflowError):
            encode(1e12, 1e8, keys32.p)


class TestElGamal:
    def test_roundtrip_thousand(self, keys64):
        rng = Drbg(99)
        for _ in range(1000):
            m = rng.randrange(1, keys64.p)
            assert decrypt(encrypt(m, keys64, rng), keys64) == m

    def test_nonce_freshness(self, keys64):
        rng = Drbg(1)
        c_a = encrypt(12345, keys64, rng)
        c_b = encrypt(12345, keys64, rng)
        assert c_a != c_b

    def test_fixed_nonce_reproducible(self, keys64):
        got = encrypt(777, keys64, Drbg(42))
        again = encrypt(777, keys64, Drbg(42))
        assert got == again
        # oracle: c1 = g^k, c2 = m h^k with the same derived nonce
        k = Drbg(42).randrange(1, keys64.p - 1)
        assert got == Ciphertext(pow(keys64.g, k, keys64.p),
                                 777 * pow(keys64.h, k, keys64.p) % keys64.p)

    def test_one_power_matches_fermat_inverse(self, keys64):
        # reference: c2 * (c1^s)^-1 with the inverse by Fermat, for any c1 including 0
        p, s = keys64.p, keys64.s
        rng = Drbg(14)
        for c1 in [0, 1, p - 1, keys64.g] + [rng.randrange(0, p) for _ in range(200)]:
            c2 = rng.randrange(1, p)
            assert decrypt(Ciphertext(c1, c2), keys64) == c2 * pow(pow(c1, s, p), p - 2, p) % p

    def test_secret_required(self, keys64):
        ct = encrypt(5, keys64, Drbg(0))
        with pytest.raises(ValueError):
            decrypt(ct, keys64.public())


class TestHomomorphism:
    def test_identity_element(self, keys64):
        rng = Drbg(3)
        a = 987654321
        prod = hom_mul(encrypt(a, keys64, rng), encrypt(1, keys64, rng), keys64.p)
        assert decrypt(prod, keys64) == a

    def test_random_products(self, keys64):
        rng = Drbg(4)
        for _ in range(300):
            a = rng.randrange(1, keys64.p)
            b = rng.randrange(1, keys64.p)
            prod = hom_mul(encrypt(a, keys64, rng), encrypt(b, keys64, rng), keys64.p)
            assert decrypt(prod, keys64) == a * b % keys64.p

    def test_associative(self, keys64):
        rng = Drbg(5)
        cts = [encrypt(m, keys64, rng) for m in (3, 11, 29)]
        left = hom_mul(hom_mul(cts[0], cts[1], keys64.p), cts[2], keys64.p)
        right = hom_mul(cts[0], hom_mul(cts[1], cts[2], keys64.p), keys64.p)
        assert left == right

    def test_enc_eval_is_hom_mul_per_product(self, keys64):
        rng = Drbg(8)
        enc_phi = [[encrypt(rng.randrange(1, keys64.p), keys64, rng) for _ in range(18)]
                   for _ in range(5)]
        enc_xi = [encrypt(rng.randrange(1, keys64.p), keys64, rng) for _ in range(18)]
        products = enc_eval(enc_phi, enc_xi, keys64.p)
        # the c2 half of each product only: Dec+ decrypts from c2 and a factor made ahead
        assert products == [[hom_mul(a, x, keys64.p).c2 for a, x in zip(row, enc_xi)]
                            for row in enc_phi]
        assert all(type(c2) is int for row in products for c2 in row)


# primes of 64, 100, 128, 256 and 512 bits; 100 is not a whole number of table rows
MODULI = (2**64 - 59, 2**100 - 15, 2**128 - 159, 2**256 - 189, 2**512 - 569)


class TestFixedBase:
    """Table exponentiation and the batch inverse against builtin pow."""

    @pytest.mark.parametrize("p", MODULI, ids=lambda p: f"{p.bit_length()}-bit")
    def test_edge_exponents(self, p):
        base = 3
        table = FixedBase(base, p)
        assert len(table._rows) == (p.bit_length() + 7) // 8
        for e in (0, 1, 255, 256, p - 2):
            assert table.pow(e) == pow(base, e, p)

    @pytest.mark.parametrize("p", MODULI, ids=lambda p: f"{p.bit_length()}-bit")
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_exponents(self, p, data):
        base = data.draw(st.integers(2, p - 2))
        e = data.draw(st.integers(0, p - 1))
        assert FixedBase(base, p).pow(e) == pow(base, e, p)

    def test_exponent_outside_table(self):
        table = FixedBase(5, MODULI[1])  # 13 rows
        assert table.pow(256**13 - 1) == pow(5, 256**13 - 1, MODULI[1])
        for e in (256**13, -1):
            with pytest.raises(OverflowError):
                table.pow(e)

    @pytest.mark.parametrize("p", MODULI, ids=lambda p: f"{p.bit_length()}-bit")
    def test_batch_inverse(self, p):
        rng = Drbg(p)
        xs = [rng.randrange(1, p) for _ in range(18)]
        invs = _inverses(xs, p)
        assert len(invs) == 18
        assert all(x * inv % p == 1 for x, inv in zip(xs, invs))
        assert _inverses([], p) == []

    @pytest.mark.parametrize("bits, seed", [(64, 2024), (256, 3)])
    @pytest.mark.parametrize("nonce_seed", [0, 11])
    def test_pads_match_builtin_pow(self, bits, seed, nonce_seed):
        keys = keygen(bits=bits, seed=seed)
        p = keys.p
        rng = Drbg(nonce_seed)
        want = []
        for _ in range(18):
            k = rng.randrange(1, p - 1)
            h_k = pow(keys.h, k, p)
            want.append(Pad(pow(keys.g, k, p), h_k, pow(h_k, -1, p)))
        assert draw_pads(18, keys, Drbg(nonce_seed)) == want

    def test_tables_are_the_keys_built_on_first_use(self, monkeypatch):
        # g and h are fixed per key, so its tables are built once, lazily, and stay out
        # of the key's equality, hash and repr
        built = []
        init = FixedBase.__init__

        def counting_init(self, base, p):
            built.append(base)
            init(self, base, p)

        monkeypatch.setattr(FixedBase, "__init__", counting_init)
        keys = keygen(bits=64, seed=2024)
        assert built == []
        draw_pads(18, keys, Drbg(0))
        enc_matrix(np.ones((5, 18)), EncodingParams(), keys, Drbg(1))
        assert built == [keys.g, keys.h]
        assert keys.tables[0].pow(5) == pow(keys.g, 5, keys.p)
        copy = keygen(bits=64, seed=2024)
        assert copy == keys and hash(copy) == hash(keys) and repr(copy) == repr(keys)


@pytest.fixture(scope="module")
def phi():
    coeffs, _ = fit_controller_coeffs(DEFAULT_PAM)
    return build_phi(coeffs, DEFAULT_PAM, DEFAULT_GAINS)


class TestMatrixPipeline:
    @pytest.mark.parametrize("nonce_seed", [0, 11])
    def test_enc_matrix_from_tables_is_per_entry_encryption(self, keys64, phi, nonce_seed):
        # the same nonces in the same order, so the stream after it agrees too
        p, delta = keys64.p, EncodingParams().delta_phi
        a, b = Drbg(nonce_seed), Drbg(nonce_seed)
        assert enc_matrix(phi, EncodingParams(), keys64, a) == \
            [[encrypt(encode(float(v), delta, p), keys64, b) for v in row] for row in phi]
        assert a.randrange(1, p - 1) == b.randrange(1, p - 1)

    @pytest.mark.parametrize("nonce_seed", [0, 11])
    def test_enc_vector_from_rng_is_per_entry_encryption(self, keys64, nonce_seed):
        p, xi = keys64.p, np.linspace(-0.5, 0.5, 18)
        a, b = Drbg(nonce_seed), Drbg(nonce_seed)
        assert enc_vector(xi, 1e8, keys64, a) == \
            [encrypt(encode(float(v), 1e8, p), keys64, b) for v in xi]
        assert a.randrange(1, p - 1) == b.randrange(1, p - 1)

    def test_enc_matrix_roundtrip(self, keys64, phi):
        enc = EncodingParams()
        rng = Drbg(6)
        enc_phi = enc_matrix(phi, enc, keys64, rng)
        assert len(enc_phi) == 5 and all(len(r) == 18 for r in enc_phi)
        for i in range(5):
            for j in range(18):
                val = decode(decrypt(enc_phi[i][j], keys64), enc.delta_phi, keys64.p)
                if phi[i][j] == 0.0:
                    assert val == 1.0 / enc.delta_phi
                else:
                    assert val == pytest.approx(phi[i][j], abs=1.0 / enc.delta_phi)

    def test_overflow_guard_accepts_defaults(self, keys64, phi):
        bounds = check_overflow_guard(EncodingParams(), phi, keys64.p)
        assert bounds.shape == (5, 18)

    def test_overflow_guard_rejects_big_scaling(self, keys64, phi):
        with pytest.raises(OverflowGuardError):
            check_overflow_guard(EncodingParams(delta_xi=1e12, delta_phi=1e12), phi, keys64.p)

    def test_overflow_guard_rejects_small_key(self, phi):
        small = keygen(bits=32, seed=1)
        with pytest.raises(OverflowGuardError):
            check_overflow_guard(EncodingParams(), phi, small.p)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_overflow_guard_names_a_non_finite_entry(self, bad, keys64, phi):
        # a NaN used to pass (2*m_phi*m_xi >= p is False) and return a NaN bound
        phi = phi.copy()
        phi[3][5] = bad
        phi[4][0] = bad
        with pytest.raises(ValueError, match=re.escape(f"Phi[4][6] = {bad} is not finite")) as exc:
            check_overflow_guard(EncodingParams(), phi, keys64.p)
        assert not isinstance(exc.value, OverflowGuardError)  # so no key search retries it
        with pytest.raises(ValueError, match=re.escape("Phi[4][6]")):
            find_session_key(phi, bits=64, seed=0)

    def test_column_broadcast(self, keys64, phi):
        enc = EncodingParams()
        rng = Drbg(7)
        enc_phi = enc_matrix(phi, enc, keys64, rng)
        xi = np.zeros(18)
        xi[11] = 475.0
        enc_xi = enc_vector(xi, enc.delta_xi, keys64, rng)
        products = hom_products(enc_phi, enc_xi, keys64.p)
        assert enc_eval(enc_phi, enc_xi, keys64.p) == c2_of(products)
        # column j of the product matrix uses only xi_j
        for i in range(5):
            got = decode(decrypt(products[i][11], keys64),
                         enc.delta_xi * enc.delta_phi, keys64.p)
            assert got == pytest.approx(phi[i][11] * 475.0, abs=1e-5)

    def test_full_pipeline_error_bound(self, keys64, phi):
        enc = EncodingParams()
        rng = Drbg(8)
        np_rng = np.random.default_rng(9)
        enc_phi = enc_matrix(phi, enc, keys64, rng)
        bounds = check_overflow_guard(enc, phi, keys64.p)
        for _ in range(25):
            xi = np.array([np_rng.uniform(-b, b) for b in enc.xi_bounds])
            xi[15] = 1.0
            enc_xi = enc_vector(xi, enc.delta_xi, keys64, rng)
            psi = dec_plus(enc_eval(enc_phi, enc_xi, keys64.p), enc, keys64, bounds,
                           prepared=power_factors(hom_products(enc_phi, enc_xi, keys64.p), keys64))
            want = phi @ xi
            # per-row analytic bound from the encoding resolution
            bound = (np.sum(np.abs(phi), axis=1) / enc.delta_xi
                     + np.sum(np.abs(xi)) / enc.delta_phi
                     + 18.0 / (enc.delta_xi * enc.delta_phi))
            assert np.all(np.abs(np.array(psi) - want) <= bound + 1e-12)
            assert np.all(np.abs(np.array(psi) - want) <= 1e-4)

    def test_single_nonzero_column(self, keys64, phi):
        enc = EncodingParams()
        rng = Drbg(10)
        enc_phi = enc_matrix(phi, enc, keys64, rng)
        xi = np.zeros(18)
        xi[0] = 6.0
        enc_xi = enc_vector(xi, enc.delta_xi, keys64, rng)
        psi = dec_plus(enc_eval(enc_phi, enc_xi, keys64.p), enc, keys64,
                       prepared=power_factors(hom_products(enc_phi, enc_xi, keys64.p), keys64,
                                              phi == 0.0))
        # the 17 zero xi entries encode as 1, costing up to sum|phi_i|/delta_xi per row
        tol = np.sum(np.abs(phi), axis=1) / enc.delta_xi + 1e-6
        assert np.all(np.abs(np.array(psi) - phi[:, 0] * 6.0) <= tol)

    def test_identity_like_block(self, keys64):
        enc = EncodingParams()
        rng = Drbg(11)
        ident = np.zeros((5, 18))
        for i in range(5):
            ident[i, i] = 1.0
        enc_phi = enc_matrix(ident, enc, keys64, rng)
        xi = np.linspace(0.5, 9.0, 18)
        enc_xi = enc_vector(xi, enc.delta_xi, keys64, rng)
        psi = dec_plus(enc_eval(enc_phi, enc_xi, keys64.p), enc, keys64,
                       prepared=power_factors(hom_products(enc_phi, enc_xi, keys64.p), keys64,
                                              ident == 0.0))
        assert np.array(psi) == pytest.approx(xi[:5], abs=1e-6)

    def test_decode_overflow_detected(self, keys64):
        # lie about the xi bound so the guard passes, then overflow at runtime
        enc = EncodingParams()
        phi_small = np.full((5, 18), 1e-9)
        bounds = check_overflow_guard(enc, phi_small, keys64.p)
        rng = Drbg(12)
        enc_phi = enc_matrix(np.full((5, 18), 400.0), enc, keys64, rng)
        xi = np.full(18, 900.0)
        enc_xi = enc_vector(xi, enc.delta_xi, keys64, rng)
        with pytest.raises(DecodeOverflowError):
            dec_plus(enc_eval(enc_phi, enc_xi, keys64.p), enc, keys64, bounds,
                     prepared=power_factors(hom_products(enc_phi, enc_xi, keys64.p), keys64))


class TestOnlineDecPlus:
    """Session masks from Enc(Phi): from the c2 halves alone, the psi of decryption by powers."""

    @staticmethod
    def _session(keys, phi):
        enc = EncodingParams()
        rng = Drbg(21)
        enc_phi = enc_matrix(phi, enc, keys, rng)
        return dict(enc=enc, rng=rng, enc_phi=enc_phi,
                    bounds=check_overflow_guard(enc, phi, keys.p), zero_mask=phi == 0.0,
                    masks=PhiMasks(enc_phi, phi, enc, keys))

    @pytest.fixture()
    def session(self, keys64, phi):
        return self._session(keys64, phi)

    def _sessions(self, session, keys64, phi):
        """The 64-bit session and new ones at 128 and 256 bits."""
        return [(session, keys64)] + [(self._session(keys, phi), keys) for keys in
                                      (keygen(bits=bits, seed=bits) for bits in (128, 256))]

    def _step(self, s, keys, xi, pads=None):
        """The step's full products, whose c2 halves are `enc_eval`'s, and its pads."""
        if pads is None:
            pads = draw_pads(18, keys, s["rng"])
        enc_xi = enc_vector(xi, s["enc"].delta_xi, keys, pads=pads)
        products = hom_products(s["enc_phi"], enc_xi, keys.p)
        assert enc_eval(s["enc_phi"], enc_xi, keys.p) == c2_of(products)
        return products, pads

    @staticmethod
    def _dec(s, keys, products, prepared=None):
        """Dec+ of the products' c2 halves; without `prepared`, every product by powers."""
        return dec_plus(c2_of(products), s["enc"], keys, s["bounds"],
                        prepared=prepared or power_factors(products, keys))

    def _by_powers(self, s, keys, products):
        return self._dec(s, keys, products, power_factors(products, keys, s["zero_mask"]))

    def _two_steps(self, s, keys):
        """The products of an honest step 1, and the products and prepared Dec+ of step 2."""
        first, _ = self._step(s, keys, np.full(18, 0.1))
        products, pads = self._step(s, keys, np.full(18, 0.1))
        return first, products, s["masks"].prepare(pads, keys.p)

    @staticmethod
    def _by_decrypt(s, keys, products):
        """Each nonzero entry's product by `decrypt` and `decode`, summed left to right."""
        combined = s["enc"].delta_xi * s["enc"].delta_phi
        psi = []
        for i, row in enumerate(products):
            total = 0.0
            for j, ct in enumerate(row):
                if not s["zero_mask"][i][j]:
                    total += decode(decrypt(ct, keys), combined, keys.p)
            psi.append(total)
        return psi

    def test_matches_decryption_by_powers(self, session, keys64, phi):
        # every step, the first included, by its session masks, against plain decryption
        np_rng = np.random.default_rng(22)
        for s, keys in self._sessions(session, keys64, phi):
            for k in range(7):
                xi = (np.full(18, 0.1) if k == 0 else
                      np.array([np_rng.uniform(-b, b) for b in s["enc"].xi_bounds]))
                products, pads = self._step(s, keys, xi)
                prepared = s["masks"].prepare(pads, keys.p)
                assert self._dec(s, keys, products, prepared) == self._by_decrypt(s, keys, products)

    def test_prepared_before_the_reply_matches_decryption_by_powers(self, session, keys64, phi):
        # each step's Dec+ is prepared from its pads before its reply exists
        np_rng = np.random.default_rng(23)
        for s, keys in self._sessions(session, keys64, phi):
            for _ in range(6):
                pads = draw_pads(18, keys, s["rng"])
                prepared = s["masks"].prepare(pads, keys.p)
                xi = np.array([np_rng.uniform(-b, b) for b in s["enc"].xi_bounds])
                products, _ = self._step(s, keys, xi, pads)
                assert self._dec(s, keys, products, prepared) == self._by_powers(s, keys, products)

    def test_altered_or_replayed_c1_rejected(self, session, keys64, phi):
        # a reply carries no c1: a replayed or altered c2 decodes outside its bound, and
        # the c1 left to alter, Enc(Phi)'s, is refused at set-up, where the masks come from it
        first, products, prepared = self._two_steps(session, keys64)
        with pytest.raises(DecodeOverflowError, match="altered or replayed"):
            self._dec(session, keys64, first, prepared)  # step 1's reply to step 2's request
        ct = products[1][4]
        products[1][4] = Ciphertext(ct.c1, ct.c2 * keys64.g % keys64.p)
        with pytest.raises(DecodeOverflowError, match=r"\(2,5\)"):
            self._dec(session, keys64, products, prepared)
        enc_phi = [list(row) for row in session["enc_phi"]]
        ct = enc_phi[1][4]
        enc_phi[1][4] = Ciphertext(ct.c1 * keys64.g % keys64.p, ct.c2)
        with pytest.raises(ReplyIntegrityError, match=re.escape("Enc(Phi)[2][5] does not")):
            PhiMasks(enc_phi, phi, session["enc"], keys64)

    @pytest.mark.parametrize("altered, named", [
        ([(2, 6), (1, 4)], "[2][5]"),   # two bad rows: the first in row-major order is named
        ([(1, 11), (1, 4)], "[2][5]"),  # two bad entries in one row: the first is named
        ([(4, 17)], "[5][18]"),         # the last entry of the last row
    ], ids=["first-of-two-rows", "first-in-its-row", "last-product"])
    def test_c1_check_names_the_first_altered_product(self, altered, named, session, keys64,
                                                      phi):
        # the c1 checked is Enc(Phi)'s, at set-up: an altered one gives a mask that does
        # not decrypt its entry of Phi
        enc_phi = [list(row) for row in session["enc_phi"]]
        for i, j in altered:
            ct = enc_phi[i][j]
            enc_phi[i][j] = Ciphertext(ct.c1 * keys64.g % keys64.p, ct.c2)
        with pytest.raises(ReplyIntegrityError, match=re.escape(f"Enc(Phi){named} does not")):
            PhiMasks(enc_phi, phi, session["enc"], keys64)

    def test_prepare_skips_the_zero_entries(self, session, keys64, phi):
        first, pads = self._step(session, keys64, np.full(18, 0.1))
        nonzero = int(np.count_nonzero(phi))
        assert sum(len(row) for row in session["masks"].mask) == nonzero == 71
        prepared = session["masks"].prepare(pads, keys64.p)
        assert sum(len(row) for row in prepared) == nonzero
        # one (j, factor) pair per nonzero entry and nothing of c1: each factor is its
        # product's c1^-s
        assert all(len(pair) == 2 for row in prepared for pair in row)
        e = keys64.p - 1 - keys64.s
        for i, row in enumerate(prepared):
            for j, factor in row:
                assert factor == pow(first[i][j].c1, e, keys64.p)

    @pytest.mark.parametrize("step", [1, 2])
    @pytest.mark.parametrize("learned", [True, False], ids=["masks", "powers"])
    def test_c2_outside_the_group_on_a_zero_entry_is_named(self, learned, step, session, keys64):
        # Phi[0][0] is 0: Dec+ skips its product, but its c2 is still range-checked
        assert session["zero_mask"][0][0]
        xi = np.full(18, 0.1)
        products, pads = self._step(session, keys64, xi)
        if step == 2:  # after an honest first step
            products, pads = self._step(session, keys64, xi)
        products[0][0] = products[0][0]._replace(c2=0)
        with pytest.raises(ReplyIntegrityError, match=r"product \(1,1\): c2 = 0 is outside"):
            if learned:
                self._dec(session, keys64, products, session["masks"].prepare(pads, keys64.p))
            else:
                self._dec(session, keys64, products)

    @pytest.mark.parametrize("c1_of", [lambda c1, p: 0, lambda c1, p: c1 + p],
                             ids=["zero", "plus-p"])
    @pytest.mark.parametrize("learned", [True, False], ids=["masks", "powers"])
    def test_first_reply_c1_outside_the_group_is_named(self, learned, c1_of, session, keys64,
                                                       phi):
        # over a network the masks come from the first reply, Enc(Phi) itself;
        # c1 = 0 there used to give a mask of 0 and end in decode's bare ValueError
        if learned:
            products = [list(row) for row in session["enc_phi"]]
        else:
            products, _ = self._step(session, keys64, np.full(18, 0.1))
        ct = products[3][9]
        products[3][9] = ct._replace(c1=c1_of(ct.c1, keys64.p))
        with pytest.raises(ReplyIntegrityError, match=r"product \(4,10\): c1 = \d+ is outside"):
            if learned:
                PhiMasks(products, phi, session["enc"], keys64)
            else:
                self._dec(session, keys64, products)


class TestDrbg:
    def test_deterministic_stream(self):
        assert Drbg(5).randbytes(64) == Drbg(5).randbytes(64)
        assert Drbg(5).randbytes(64) != Drbg(6).randbytes(64)

    def test_randrange_bounds(self):
        rng = Drbg(13)
        vals = [rng.randrange(10, 17) for _ in range(500)]
        assert min(vals) >= 10 and max(vals) < 17
        assert len(set(vals)) == 7

    def test_unseeded_is_nondeterministic(self):
        assert Drbg().randbytes(32) != Drbg().randbytes(32)

    @pytest.mark.parametrize("seed", [0, 5, 2**256 - 1], ids=["0", "5", "2^256-1"])
    def test_seed_below_2_256_is_32_bytes(self, seed):
        # keys, nonces and prime verdicts at 256 bits and below depend on this stream
        state = hashlib.sha256(b"pamenc-drbg:" + seed.to_bytes(32, "big")).digest()
        want = hashlib.sha256(state + (0).to_bytes(8, "big")).digest()
        assert Drbg(seed).randbytes(32) == want

    def test_one_block_requests_match_the_block_loop(self):
        # the stream as a loop over whole SHA-256 blocks produces it, for any request sizes
        def loop_stream(seed, sizes):
            state = hashlib.sha256(b"pamenc-drbg:" + seed.to_bytes(32, "big")).digest()
            counter, out = 0, []
            for n in sizes:
                buf = bytearray()
                while len(buf) < n:
                    buf.extend(hashlib.sha256(state + counter.to_bytes(8, "big")).digest())
                    counter += 1
                out.append(bytes(buf[:n]))
            return out

        sizes = [1, 8, 31, 32, 33, 100, 0, 8, 32, 1]
        rng = Drbg(9)
        assert [rng.randbytes(n) for n in sizes] == loop_stream(9, sizes)

    def test_seed_above_2_256(self):
        assert Drbg(2**300).randbytes(32) != Drbg(2**300 + 1).randbytes(32)
