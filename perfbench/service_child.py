"""Service side of the enc-tcp workload, run as a process of its own.

The benchmark starts this script, writes one JSON command per line to its
stdin and reads one JSON reply per line from its stdout:

    {"cmd": "serve", "p": P, "enc_phi": [[[c1, c2], ...], ...]} -> {"port": N}
    {"cmd": "trace"} -> {"ok": true}    wrap the service's layer calls
    {"cmd": "spans"} -> {"spans": [[name, start, end, parent, step], ...],
                         "sizes": {name: [bytes, ...]}}    and unwrap them
    {"cmd": "exit"}  -> no reply; stops every service, then exits

It prints {"ready": true} once the program is imported, so interpreter
start-up stays outside the benchmark's set-up time.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

from benchlib import import_program
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    import_program(ROOT)
    from pamenc import protocol, service
    from pamenc.crypto import Ciphertext

    services = []
    tracer: Tracer | None = None
    print(json.dumps({"ready": True}), flush=True)
    try:
        for line in sys.stdin:
            msg = json.loads(line)
            cmd = msg.get("cmd")
            if cmd == "exit":
                break
            if cmd == "serve":
                enc_phi = [[Ciphertext(c1, c2) for c1, c2 in row] for row in msg["enc_phi"]]
                svc = service.ControllerService(enc_phi, msg["p"]).start()
                services.append(svc)
                reply = {"port": svc.address[1]}
            elif cmd == "trace" and tracer is None:
                tracer = Tracer()
                tracer.step = -1  # the first request parsed opens step 0
                tracer.patch(service, "enc_eval", "crypto.enc_eval")
                tracer.patch(protocol, "pack_eval_response", "protocol.pack_response",
                             size_of_result=True)
                tracer.patch_parse(protocol, requests_are_steps=True)
                reply = {"ok": True}
            elif cmd == "spans" and tracer is not None:
                tracer.restore()
                reply = {"spans": [list(s) for s in tracer.spans], "sizes": tracer.sizes}
                tracer = None
            else:
                reply = {"error": f"unexpected command {cmd!r}"}
            print(json.dumps(reply), flush=True)
    finally:
        # ControllerService.stop() waits up to 1 s for its accept thread; stop all at once.
        stoppers = [threading.Thread(target=svc.stop) for svc in services]
        for t in stoppers:
            t.start()
        for t in stoppers:
            t.join(timeout=10.0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
