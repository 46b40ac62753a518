"""Every demo runs end to end as a script and prints its result line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name, expect", [
    ("01_actuator_model.py", "P1 = P2 = 475 kPa: torque = +0.0000 N*m"),
    ("02_original_controller.py", "wrote original_ref2.csv"),
    ("03_polynomial_fit.py", "wrote coeffs.csv"),
    ("04_matrix_form.py", "wrote phi.csv (5x18, full precision)"),
    ("05_encrypted_loop.py", "wrote encrypted_ref2.csv"),
    ("06_networked_service.py",
     "networked run identical to in-process run (same nonce seed): True"),
    ("07_evaluation_report.py", "wrote comparison_ref2_load.csv"),
])
def test_demo_runs(name, expect, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert expect in proc.stdout
