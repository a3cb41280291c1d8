"""The two quick demos run clean, warnings included.

Demo 01 calls the raw ops, ``Parameter`` and ``gradient_check`` directly, so
it exercises their float64-in contract from outside the model; demo 02 walks
the metrics and the synthetic generator. Demos 03-05 train models for minutes
and are left to manual runs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_primitives_and_gradients.py",
                                  "02_metrics_and_synthetic_data.py"])
def test_demo_runs_under_warnings_as_errors(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-W", "error", str(REPO_ROOT / "demos" / demo)],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
