"""The encrypted-loop demos run end to end as scripts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name, expect", [
    ("05_encrypted_loop.py", "wrote encrypted_ref2.csv"),
    ("06_networked_service.py",
     "networked run identical to in-process run (same nonce seed): True"),
])
def test_demo_runs(name, expect, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert expect in proc.stdout
