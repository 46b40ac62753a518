#!/usr/bin/env python3
"""The split deployment: plant-side device talking to a controller service.

The service receives only Enc(Phi) and the public modulus. At set-up the
device fetches Enc(Phi) and checks it against its own Phi; then every
control period it encrypts xi, ships 18 ciphertexts over TCP under a
sequence number, gets back the c2 halves of the 90 products under the same
number, and recovers psi with Dec+. The wire never carries plaintext and
the service never holds the secret key.
"""

import numpy as np

from pamenc import (
    ControllerService,
    DEFAULT_GAINS,
    DEFAULT_PAM,
    DeviceSession,
    Drbg,
    EncodingParams,
    REF2,
    build_phi,
    enc_matrix,
    fit_controller_coeffs,
    run_closed_loop,
)
from pamenc.crypto import find_session_key

coeffs, _ = fit_controller_coeffs(DEFAULT_PAM)
phi = build_phi(coeffs, DEFAULT_PAM, DEFAULT_GAINS)
encoding = EncodingParams()
keys = find_session_key(phi, encoding, bits=64, seed=0)

enc_phi = enc_matrix(phi, encoding, keys, Drbg(3))

with ControllerService(enc_phi, keys.p) as service:
    host, port = service.address
    print(f"controller service listening on {host}:{port} "
          "(holds Enc(Phi) + modulus only)")

    with DeviceSession((host, port), timeout=1.0) as session:
        networked = run_closed_loop("encrypted", REF2, phi=phi, keys=keys,
                                    nonce_seed=11, session=session,
                                    measure_time=True)

in_process = run_closed_loop("encrypted", REF2, phi=phi, keys=keys, nonce_seed=11)

same = all(np.array_equal(networked[c], in_process[c])
           for c in ("theta_deg", "k_p", "u1", "u2", "p1", "p2"))
print(f"\nnetworked run identical to in-process run (same nonce seed): {same}")

ct = networked["compute_time"] * 1e3
print(f"per-step device time incl. the TCP round trip: mean {ct.mean():.2f} ms, "
      f"worst {ct.max():.2f} ms (sampling period 20 ms)")

overruns = int(np.sum(networked["clamp_flags"].astype(int) & 16 > 0))
print(f"deadline overruns recorded in the trace: {overruns} of {len(networked)} steps")
