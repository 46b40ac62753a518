"""The traced encrypted benchmark runs on this checkout and records every span it requires.

The tracer reaches the program by rebinding `harness.enc_vector`, `harness.enc_eval`,
`harness.dec_plus` and `DeviceSession.eval`, among others. A change that reroutes one of
those calls leaves its span empty, and the benchmark then fails its `spans_recorded` check.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["enc-inproc", "enc-tcp"])
def test_traced_encrypted_workload_records_every_span(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    checks = next(line for line in lines if line.startswith("checks: "))
    assert "spans_recorded=True" in checks.split(": ", 1)[1].split(", ")
    detail = next(json.loads(line[len("DETAIL "):]) for line in lines
                  if line.startswith("DETAIL "))
    assert detail["missing_spans"] == []
