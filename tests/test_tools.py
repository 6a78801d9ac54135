import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_auxfn import TestHighPrecisionSums

import covrad

ROOT = Path(__file__).resolve().parents[1]


def _env_with_covrad() -> dict:
    """The environment with this covrad first on PYTHONPATH, as the tools expect."""
    env = dict(os.environ)
    src = str(Path(covrad.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_trial_stages_runs():
    # in a child process: trial_stages rebinds nets.cKDTree for its whole process
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "trial_stages.py"),
         "--domains", "cube2", "--n", "1000", "--trials", "1"],
        capture_output=True, text=True, env=_env_with_covrad(), timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 1
    row = json.loads(lines[0])
    assert row["domain"] == "cube2"
    assert float(row["L"]) > 0.0
    assert row["peak_rss_mb"] > 0.0


def test_occupancy_stages_runs():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "occupancy_stages.py")],
        capture_output=True, text=True, env=_env_with_covrad(), timeout=120)
    assert run.returncode == 0, run.stderr
    rows = [json.loads(line) for line in run.stdout.splitlines()]
    assert [r["branch"] for r in rows] == (["high_precision"] * 10 + ["saturated"] * 2
                                           + ["complement"] * 4)
    assert all(r["ms"] >= 0.0 for r in rows)
    values = [float(r["value"]) for r in rows]
    # the first triple is f = 2 * 2^-100; f_dp returns 1.0 when saturated;
    # log(1 - f) falls along the regime
    assert values[0] == pytest.approx(2.0**-99, rel=1e-12)
    assert all(0.0 < v < 1.0 for v in values[:10]) and values[10:12] == [1.0, 1.0]
    assert all(b < a < 0.0 for a, b in zip(values[12:], values[13:]))
    # the high-precision and complement triples are the pinned ones, bit for bit
    pinned = TestHighPrecisionSums
    assert {(r["N"], r["n"], r["m"]): r["value"] for r in rows[:10]} == pinned.HIGH_PRECISION_F_DP
    assert {r["N"]: r["value"] for r in rows[12:]} == pinned.COMPLEMENT_LOG_REGIME_III
