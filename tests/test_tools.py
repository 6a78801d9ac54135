import json
import os
import subprocess
import sys
from pathlib import Path

import covrad

ROOT = Path(__file__).resolve().parents[1]


def test_trial_stages_runs():
    # in a child process: trial_stages rebinds nets.cKDTree for its whole process
    env = dict(os.environ)
    src = str(Path(covrad.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "trial_stages.py"),
         "--domains", "cube2", "--n", "1000", "--trials", "1"],
        capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 1
    row = json.loads(lines[0])
    assert row["domain"] == "cube2"
    assert float(row["L"]) > 0.0
