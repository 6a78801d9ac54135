import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import test_auxfn
from oracles import occupancy_reference

import covrad
from covrad.auxfn import OccupancyParams, RegimeSpec, f_exact, regime_params

ROOT = Path(__file__).resolve().parents[1]


def _env_with_covrad() -> dict:
    """The environment with this covrad first on PYTHONPATH, as the tools expect."""
    env = dict(os.environ)
    src = str(Path(covrad.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_trial_stages_runs():
    # in a child process, so that the command line itself is run
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
    assert row["query_calls"] >= 1
    assert row["query_rows"] >= row["final_query_rows"] >= 1
    # one query per level of blocks, then one over the kept finest blocks' points
    assert row["query_calls"] == len(row["query_rows_per_call"]) == row["depth"] + 2
    assert sum(row["query_rows_per_call"]) == row["query_rows"]


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
    pinned = test_auxfn.TestHighPrecisionSums
    assert {(r["N"], r["n"], r["m"]): r["value"] for r in rows[:10]} == pinned.HIGH_PRECISION_F_DP
    assert {r["N"]: r["value"] for r in rows[12:]} == pinned.COMPLEMENT_LOG_REGIME_III


def _occupancy_branches() -> dict:
    """tools/occupancy_stages.py's BRANCHES table, imported in this process."""
    spec = importlib.util.spec_from_file_location(
        "occupancy_stages", ROOT / "tools" / "occupancy_stages.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BRANCHES


class TestHighPrecisionSums:
    """The sums as tools/occupancy_stages.py times them: each pinned triple is one
    the tool lists, and each value is taken with the evaluator from its table."""

    PINNED = test_auxfn.TestHighPrecisionSums
    BRANCHES = _occupancy_branches()

    @pytest.mark.parametrize("big_n", sorted(PINNED.COMPLEMENT_LOG_REGIME_III))
    def test_complement_log_pinned(self, big_n):
        fn, triples = self.BRANCHES["complement"]
        p = regime_params(RegimeSpec("III", 1.0, 1.5, 3), big_n)
        triple = (p.n_points, p.cells_inv_measure, p.n_cells)
        assert triple in triples
        assert repr(fn(OccupancyParams(*triple))) == self.PINNED.COMPLEMENT_LOG_REGIME_III[big_n]

    @pytest.mark.parametrize("triple", sorted(PINNED.HIGH_PRECISION_F_DP))
    def test_high_precision_f_dp_pinned(self, triple):
        fn, triples = self.BRANCHES["high_precision"]
        assert triple in triples
        assert repr(fn(OccupancyParams(*triple))) == self.PINNED.HIGH_PRECISION_F_DP[triple]

    @pytest.mark.parametrize("triple", PINNED.SMALL_M)
    def test_f_dp_equals_high_digit_reference(self, triple):
        fn = self.BRANCHES["high_precision"][0]
        params = OccupancyParams(*triple)
        assert fn(params) == occupancy_reference(params)

    def test_sums_match_exact(self):
        # the "high_precision" and "saturated" branches time one evaluator, f_dp
        f_fn = self.BRANCHES["high_precision"][0]
        assert self.BRANCHES["saturated"][0] is f_fn
        log_fn = self.BRANCHES["complement"][0]
        worst_f = worst_log = 0.0
        for params in test_auxfn.EXACT_GRID:
            exact = f_exact(params)
            worst_f = max(worst_f, test_auxfn._relative_error(f_fn(params), float(exact)))
            want = math.log1p(-float(exact)) if exact < 0.5 else math.log(float(1 - exact))
            worst_log = max(worst_log, abs(log_fn(params) - want) / max(1.0, abs(want)))
        assert worst_f <= 1e-12 and worst_log <= 1e-12
