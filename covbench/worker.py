"""One benchmark process: set up a workload, time whole passes, check outputs.

Started by run.py, one process per workload (so peak RSS is the workload's
own), or per set-up sample with --mode setup. The library's stdout is the
parent's stderr; results go to the JSON file named by --result.

    python3 covbench/worker.py --workload exact1d --seed 1 --seconds 10 \
        --mode run --outdir DIR --result FILE [--trace-out SPANS.jsonl]
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time
from pathlib import Path


def timed_passes(workload, seconds: float | None = None, count: int | None = None):
    """Run whole passes until `seconds` of pass time or `count` passes are done."""
    busy = 0.0
    ops = 0
    passes = 0
    while (busy < seconds) if count is None else (passes < count):
        t0 = time.perf_counter()
        ops += workload.run_pass()
        busy += time.perf_counter() - t0
        passes += 1
        workload.after_pass()
    return passes, ops, busy


def pass_time(workload, first_pass: int = 0) -> tuple[float, float]:
    """(pass seconds, pass time in units of the reference work's time).

    A pass's time is the sum over its parts of each part's median across
    passes, so a burst of load on the shared machine hits one sample only.
    The relative time divides each part's sample by the reference work's
    time around it before taking medians.
    """
    parts = [v[first_pass:] for v in workload.part_s.values()]
    pass_s = sum(statistics.median(t for t, _ in v) for v in parts)
    relative = sum(statistics.median(t / ref for t, ref in v) for v in parts)
    return pass_s, relative


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "run"), default="run")
    p.add_argument("--outdir", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--trace-out", type=Path, help="trace the run; write its spans here")
    args = p.parse_args()

    t0 = time.perf_counter()
    import covrad
    import_s = time.perf_counter() - t0

    import workloads
    from tracer import Tracer, layer_metrics

    args.outdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.outdir)
    workload.warmup()
    result = {"t_first": time.monotonic(), "import_s": import_s,
              "covrad_file": covrad.__file__}
    if args.mode == "setup":
        args.result.write_text(json.dumps(result))
        return

    passes, ops, busy = timed_passes(workload, seconds=args.seconds)
    pass_s, relative = pass_time(workload)
    norm_ops_per_s = ops / passes / (relative * workloads.REFERENCE_NOMINAL_S)
    reference_s = pass_s / relative
    result.update(passes=passes, ops=ops, busy_s=busy, pass_s=pass_s,
                  reference_s=reference_s, norm_ops_per_s=norm_ops_per_s,
                  speed=workloads.REFERENCE_NOMINAL_S / reference_s,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6)

    if args.trace_out:
        # same number of passes again, traced; the difference in pass time,
        # each relative to its reference work, is the tracing overhead
        tracer = Tracer()
        tracer.install()
        workload.tracer = tracer
        try:
            timed_passes(workload, count=passes)
        finally:
            tracer.uninstall()
            workload.tracer = None
        _, traced_relative = pass_time(workload, first_pass=passes)
        metrics = layer_metrics(tracer.spans, passes)
        metrics["init.import_s"] = import_s
        metrics["trace.overhead_frac"] = traced_relative / relative - 1.0
        result["metrics"] = metrics
        result["absent"] = tracer.absent
        tracer.write(args.trace_out)

    checks = workloads.Checks()
    width_over_delta = workload.check(checks)
    if args.trace_out:
        result["metrics"]["covering.width_over_delta"] = width_over_delta
    result.update(attempted=checks.attempted, failed=checks.failed,
                  messages=list(dict.fromkeys(checks.messages))[:50])
    args.result.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
