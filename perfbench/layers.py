"""Per-layer metrics of the traced run: what each should move, and where.

Layers are the package's modules. `moves` names the end-to-end metrics a
change to the layer is expected to move and `on` the workloads whose traced
run must record it; a traced run that records nothing for a metric on one
of its `on` workloads fails, so a refactor that reroutes a call cannot read
as zero. On the other workloads the metric is reported as 0.
"""

from __future__ import annotations

from typing import NamedTuple

ENC = ("enc-inproc", "enc-tcp")
TCP = ("enc-tcp",)
PLAIN = ("plain-sweep",)
ALL = ENC + PLAIN

LOOP = ("step_p50_ms", "step_p99_ms", "steps_per_s", "deadline_miss_pct")
TAIL = ("step_p50_ms", "step_p99_ms", "deadline_miss_pct")
SETUP = ("setup_s", "peak_rss_mb")

SCALE = {"ms": 1e3, "us": 1e6}


class LayerMetric(NamedTuple):
    name: str
    unit: str
    source: str         # span name, or key of a derived sample list or count
    per_call: bool      # True: report p50 and p99 over calls; False: the median
    moves: tuple[str, ...]
    on: tuple[str, ...]

    def names(self) -> tuple[str, ...]:
        return (f"{self.name}.p50", f"{self.name}.p99") if self.per_call else (self.name,)


M = LayerMetric
LAYER_METRICS = (
    # crypto: the encrypted step (about 95 % of it in-process)
    M("crypto.dec_plus_ms", "ms", "crypto.dec_plus", True, LOOP, ENC),
    M("crypto.enc_vector_ms", "ms", "crypto.enc_vector", True, LOOP, ENC),
    M("crypto.enc_eval_ms", "ms", "crypto.enc_eval", True, LOOP, ENC),
    # protocol and service: the wire path, enc-tcp only
    M("protocol.pack_request_us", "us", "protocol.pack_request", True, TAIL, TCP),
    M("protocol.parse_request_us", "us", "protocol.parse_request", True, TAIL, TCP),
    M("protocol.pack_response_us", "us", "protocol.pack_response", True, TAIL, TCP),
    M("protocol.parse_response_us", "us", "protocol.parse_response", True, TAIL, TCP),
    M("protocol.request_bytes", "B", "protocol.pack_request", False, TAIL, TCP),
    M("protocol.response_bytes", "B", "protocol.pack_response", False, TAIL, TCP),
    M("service.rtt_ms", "ms", "service.eval", True, TAIL, TCP),
    M("service.wait_ms", "ms", "service.wait", True, TAIL, TCP),
    M("service.timeouts", "count", "service.timeouts", False, TAIL, TCP),
    # set-up
    M("crypto.find_session_key_ms", "ms", "crypto.find_session_key", False, SETUP, ENC),
    M("crypto.enc_matrix_ms", "ms", "crypto.enc_matrix", False, SETUP, ENC),
    M("crypto.overflow_guard_ms", "ms", "crypto.overflow_guard", False, SETUP, ENC),
    M("service.setup_ms", "ms", "service.setup", False, SETUP, TCP),
    M("polyfit.fit_ms", "ms", "polyfit.fit", False, ("setup_s",), ALL),
    M("polyfit.lasso_sweeps", "count", "polyfit.lasso_sweeps", False, ("setup_s",), ALL),
    M("polyctrl.build_phi_ms", "ms", "polyctrl.build_phi", False, ("setup_s",), ALL),
    # the plaintext loop: under 2 % of an encrypted step
    M("pam.plant_step_us", "us", "pam.plant_step", True, ("steps_per_s",), ALL),
    M("pam.measured_stiffness_us", "us", "pam.measured_stiffness", True, ("steps_per_s",), ALL),
    M("controller.original_step_us", "us", "controller.original_step", True,
      ("steps_per_s",), PLAIN),
    M("polyctrl.build_xi_us", "us", "polyctrl.build_xi", True, ("steps_per_s",), ALL),
    M("polyctrl.poly_step_us", "us", "polyctrl.poly_step", True, ("steps_per_s",), ALL),
    M("harness.self_us", "us", "harness.self", True, ("steps_per_s",), ALL),
    M("harness.to_csv_ms", "ms", "harness.to_csv", False, ("steps_per_s",), PLAIN),
    M("harness.from_csv_ms", "ms", "harness.from_csv", False, ("steps_per_s",), PLAIN),
    M("harness.compare_report_ms", "ms", "harness.compare_report", False,
      ("steps_per_s",), PLAIN),
    # the tracing itself
    M("trace.overhead_pct", "%", "trace.overhead_pct", False, (), ALL),
    M("trace.crypto_share_pct", "%", "trace.crypto_share_pct", False, (), ENC),
    M("trace.spans", "count", "trace.spans", False, (), ALL),
)


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    return [(n, m.unit) for m in LAYER_METRICS for n in m.names()]
