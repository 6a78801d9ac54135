"""covrad benchmark: run one workload (or all) and print its metrics as JSON.

    python3 covbench/run.py --workload sandwich-large --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the library is imported from src/.
With --trace 0 the last stdout line holds the end-to-end metrics, with
--trace 1 the per-layer metrics of a separate traced run. Each workload runs
in its own child process (worker.py), so its peak RSS is its own; set-up time
is the median over several fresh processes. Only the benchmark's own
processes and files are measured. See NOTES.md for the workloads, metrics
and predictions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".covbench_run"
WORKLOADS = ("sandwich-large", "sandwich-small", "exact1d", "occupancy")
SETUP_SAMPLES = 5  # fresh processes whose set-up time is measured; the median is reported
TIME_LIMIT_S = 170.0  # a workload's processes together, so a run ends within 180 s

sys.path.insert(0, str(HERE))
from tracer import PER_LAYER_UNITS  # noqa: E402  (imports nothing from covrad)


class WorkerError(RuntimeError):
    pass


def _spawn(workload: str, mode: str, args, run_dir: Path, deadline: float,
           trace_out: Path | None = None) -> tuple[float, dict]:
    result_path = run_dir / f"{mode}-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--outdir", str(run_dir / "csv"), "--result", str(result_path)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{workload}: {mode} process ran past the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise WorkerError(f"{workload}: {mode} process exited with code {code}")
    return t_spawn, json.loads(result_path.read_text())


def run_workload(workload: str, args) -> dict:
    """One workload's result object: correct, attempted, failed, metrics."""
    deadline = time.monotonic() + TIME_LIMIT_S
    run_dir = RUN_DIR / f"{workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                t_spawn, res = _spawn(workload, "setup", args, run_dir, deadline)
                setup_s.append(res["t_first"] - t_spawn)
        trace_out = RUN_DIR / f"trace-{workload}-s{args.seed}.jsonl" if args.trace else None
        t_spawn, res = _spawn(workload, "run", args, run_dir, deadline, trace_out)
        setup_s.append(res["t_first"] - t_spawn)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"# {workload}: seed {args.seed}, {res['passes']} passes in {res['busy_s']:.2f} s, "
          f"{res['ops']} ops, median pass {res['pass_s']:.4g} s, reference work "
          f"{res['reference_s'] * 1e3:.3g} ms, raw set-up {statistics.median(setup_s):.4g} s; "
          f"covrad from {res['covrad_file']}; {os.cpu_count()} CPUs", file=sys.stderr)
    if args.trace:
        for name in res["absent"]:
            print(f"# absent from the library, metrics read 0: {name}", file=sys.stderr)
        metrics = {name: {"value": res["metrics"][name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        # set-up at the reference speed the run measured, so that a phase of
        # the shared machine being slower or faster than usual cancels
        metrics = {
            "setup_s": {"value": statistics.median(setup_s) * res["speed"], "unit": "s"},
            "norm_ops_per_s": {"value": res["norm_ops_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    for message in res["messages"]:
        print(f"# FAILED: {message}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"#   {name:42s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    # on SIGTERM, unwind through the finally blocks that stop the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if args.seconds < 1 or not 0 <= args.seed < 2**63:
        p.error("need --seconds >= 1 and 0 <= --seed < 2**63")
    if not (ROOT / "src" / "covrad" / "__init__.py").is_file():
        print(f"covbench: no covrad source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args) for name in names}
    except WorkerError as exc:
        print(f"covbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for name, res in results.items():
        print(f"# {name}: " + json.dumps(res))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
