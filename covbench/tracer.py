"""Span tracer for the benchmark's traced run.

Wrappers are installed from outside the library: every covrad module attribute
bound to a wrapped function is rebound to a timing wrapper, and wrapped methods
are replaced on their class. Spans stay in memory and are written once, when
the run ends. A target that no longer exists in the library is recorded as
absent; the metrics derived from it then read 0.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    root: int  # outermost open span when this one started (the runner call)
    trial: tuple | None  # (N, stream id) of the sample drawn last in this runner call
    phase: str | None  # part of the workload mix: runner-call label or occupancy sub-grid
    attrs: dict | None

    @property
    def dur(self) -> float:
        return self.end - self.start


# ---------------------------------------------------------------------------
# Hooks: `before` runs ahead of the wrapped call, `after` once it returns;
# both run outside the call's span
# ---------------------------------------------------------------------------


def _new_runner(tracer, args, kwargs):
    tracer.trial = None


def _sample_attrs(tracer, args, kwargs, result, state):
    n = int(result.points.shape[0])
    tracer.trial = (n, int(result.seed.stream_id))
    return {"n": n}


def _net_attrs(tracer, args, kwargs, result, state):
    return {"points": int(result.points.shape[0]), "nbytes": int(result.points.nbytes)}


def _nd_attrs(tracer, args, kwargs, result, state):
    tracer.last_dist = result
    return {"queries": int(len(result))}


def _bounds_attrs(tracer, args, kwargs, result, state):
    # probes a Lipschitz prune could not drop: d(y) + delta >= L
    dist, tracer.last_dist = tracer.last_dist, None
    x = args[1] if len(args) > 1 else kwargs["x"]
    points = getattr(x, "points", x)
    attrs = {"n": int(len(points))}
    if dist is not None:
        attrs["useful"] = int((dist + result.probe_mesh >= result.lower).sum())
    return attrs


def _budget_attrs(tracer, args, kwargs, result, state):
    return {"est": float(result)}


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _close_before(tracer, args, kwargs):
    return _file_size(getattr(args[0], "meta_path", None))


def _close_attrs(tracer, args, kwargs, result, state):
    writer = args[0]
    meta_grown = _file_size(getattr(writer, "meta_path", None)) - state
    return {"bytes": _file_size(getattr(writer, "path", None)) + meta_grown}


# the study runners the workloads call
RUNNERS = ("run_expectation_study", "run_zn_study", "run_arcsine_study",
           "run_random_vs_structured", "run_epsnet_study")

# span name, module, attribute path, before hook, after hook
TARGETS = [
    *((f"experiments.{r}", "covrad.experiments", r, _new_runner, None) for r in RUNNERS),
    ("experiments.check_budget", "covrad.experiments", "check_budget", None, _budget_attrs),
    ("experiments.writer.write", "covrad.experiments", "StudyWriter.write", None, None),
    ("experiments.writer.close", "covrad.experiments", "StudyWriter.close",
     _close_before, _close_attrs),
    ("sampler.sample", "covrad.sampler", "sample", None, _sample_attrs),
    ("nets.build_probe_net", "covrad.nets", "build_probe_net", None, _net_attrs),
    ("nets.build_index", "covrad.nets", "build_index", None, None),
    ("nets.nearest_distances", "covrad.nets", "SpatialIndex.nearest_distances", None, _nd_attrs),
    ("covering.covering_radius_bounds", "covrad.covering", "covering_radius_bounds",
     None, _bounds_attrs),
    ("covering.covering_radius_1d", "covrad.covering", "covering_radius_1d", None, None),
    ("covering.covering_radius_window", "covrad.covering", "covering_radius_window", None, None),
    ("covering.is_eps_net", "covrad.covering", "is_eps_net", None, None),
    ("auxfn.f_dp", "covrad.auxfn", "f_dp", None, None),
    ("auxfn.f_complement_log", "covrad.auxfn", "f_complement_log", None, None),
    ("auxfn.f_lower_bound", "covrad.auxfn", "f_lower_bound", None, None),
]


TRIAL_SPANS = {"sampler.sample", "covering.covering_radius_bounds", "covering.covering_radius_1d",
               "covering.covering_radius_window", "covering.is_eps_net"}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.trial: tuple | None = None
        self.phase: str | None = None
        self.last_dist = None
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for name, module_name, path, before, after in TARGETS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, before, after)
            if owner_path:
                self._rebind(owner, attr, wrapper)
                continue
            # rebind the name in every covrad module that imported this function
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "covrad" or mod_name.startswith("covrad."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, key, wrapper)

    def _rebind(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, name, fn, before, after):
        tracer = self

        def wrapper(*args, **kwargs):
            state = before(tracer, args, kwargs) if before else None
            sid = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            parent = stack[-1] if stack else None
            root = stack[0] if stack else sid
            stack.append(sid)
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                attrs = after(tracer, args, kwargs, result, state) if ok and after else None
                if not ok:
                    attrs = {"error": True}
                tracer.spans.append(Span(sid, name, t0, t1, parent, root, tracer.trial,
                                         tracer.phase, attrs))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------

PER_LAYER_UNITS = {
    "nets.nearest_distances.busy_s": "s",
    "nets.nearest_distances.queries": "count",
    "nets.queries_per_s": "1/s",
    "nets.useful_frac": "ratio",
    "nets.build_probe_net.calls": "count",
    "nets.build_probe_net.busy_s": "s",
    "nets.probe_points": "count",
    "nets.probe_mb_computed": "MB",
    "nets.build_index.busy_s": "s",
    "sampler.sample.calls": "count",
    "sampler.sample.busy_s": "s",
    "sampler.points_per_s": "1/s",
    "covering.covering_radius_bounds.busy_s": "s",
    "covering.covering_radius_bounds.self_s": "s",
    "covering.is_eps_net.busy_s": "s",
    "covering.dist_evals_per_trial": "count",
    "covering.covering_radius_1d.busy_s": "s",
    "covering.covering_radius_window.busy_s": "s",
    "covering.width_over_delta": "ratio",
    "experiments.runner.busy_s": "s",
    "experiments.self_s": "s",
    "experiments.trial_ms_p50": "ms",
    "experiments.trial_ms_p90": "ms",
    "experiments.trial_count": "count",
    "experiments.writer.busy_s": "s",
    "experiments.writer.bytes": "bytes",
    "experiments.budget.est_evals": "count",
    "experiments.budget.est_over_actual": "ratio",
    "auxfn.f_dp.small_m.busy_s": "s",
    "auxfn.f_dp.large_m.busy_s": "s",
    "auxfn.f_dp.saturated.busy_s": "s",
    "auxfn.f_complement_log.busy_s": "s",
    "auxfn.f_lower_bound.busy_s": "s",
    "auxfn.calls": "count",
    "init.import_s": "s",
    "trace.overhead_frac": "ratio",
}


def _quantile(sorted_vals: list[float], q: float) -> float:
    """Linear-interpolation quantile of an ascending list."""
    pos = q * (len(sorted_vals) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-layer metrics; counts and busy times are per pass of the workload."""
    by_name: dict[str, list[Span]] = {}
    child_time: dict[int, float] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.dur

    def named(name):
        return by_name.get(name, [])

    def busy(name):
        return sum(s.dur for s in named(name))

    def attr_sum(name, key):
        return sum((s.attrs or {}).get(key, 0) for s in named(name))

    runners = [s for s in spans if s.name.removeprefix("experiments.") in RUNNERS]
    runner_ids = {s.id for s in runners}
    bounds = named("covering.covering_radius_bounds")
    queries = attr_sum("nets.nearest_distances", "queries")
    sampled = attr_sum("sampler.sample", "n")
    nets = named("nets.build_probe_net")

    # per-trial latency: first span start to last span end of one (runner, trial),
    # over the calls a trial makes (net builds and writes are per N, not per trial)
    trial_span: dict[tuple, list[float]] = {}
    for s in spans:
        if s.trial is not None and s.root in runner_ids and s.name in TRIAL_SPANS:
            key = (s.root, s.trial)
            lo_hi = trial_span.setdefault(key, [s.start, s.end])
            lo_hi[0] = min(lo_hi[0], s.start)
            lo_hi[1] = max(lo_hi[1], s.end)
    trial_ms = sorted((hi - lo) * 1e3 for lo, hi in trial_span.values())
    n_trials = len(trial_ms)

    # budget model: estimate against probe queries plus N per trial, counted in
    # the runner calls that asked check_budget for an estimate
    budget_roots = {s.root for s in named("experiments.check_budget")}
    actual = sum((s.attrs or {}).get(key, 0)
                 for name, key in (("nets.nearest_distances", "queries"), ("sampler.sample", "n"))
                 for s in named(name) if s.root in budget_roots)
    est = attr_sum("experiments.check_budget", "est")

    f_dp = named("auxfn.f_dp")
    per_pass = {
        "nets.nearest_distances.busy_s": busy("nets.nearest_distances"),
        "nets.nearest_distances.queries": queries,
        "nets.build_probe_net.calls": len(nets),
        "nets.build_probe_net.busy_s": busy("nets.build_probe_net"),
        "nets.probe_points": attr_sum("nets.build_probe_net", "points"),
        "nets.build_index.busy_s": busy("nets.build_index"),
        "sampler.sample.calls": len(named("sampler.sample")),
        "sampler.sample.busy_s": busy("sampler.sample"),
        "covering.covering_radius_bounds.busy_s": busy("covering.covering_radius_bounds"),
        "covering.covering_radius_bounds.self_s":
            sum(s.dur - child_time.get(s.id, 0.0) for s in bounds),
        "covering.is_eps_net.busy_s": busy("covering.is_eps_net"),
        "covering.covering_radius_1d.busy_s": busy("covering.covering_radius_1d"),
        "covering.covering_radius_window.busy_s": busy("covering.covering_radius_window"),
        "experiments.runner.busy_s": sum(s.dur for s in runners),
        "experiments.self_s": sum(s.dur - child_time.get(s.id, 0.0) for s in runners),
        "experiments.trial_count": n_trials,
        "experiments.writer.busy_s":
            busy("experiments.writer.write") + busy("experiments.writer.close"),
        "experiments.writer.bytes": attr_sum("experiments.writer.close", "bytes"),
        "experiments.budget.est_evals": est,
        "auxfn.f_dp.small_m.busy_s": sum(s.dur for s in f_dp if s.phase == "small_m"),
        "auxfn.f_dp.large_m.busy_s": sum(s.dur for s in f_dp if s.phase == "large_m"),
        "auxfn.f_dp.saturated.busy_s": sum(s.dur for s in f_dp if s.phase == "saturated"),
        "auxfn.f_complement_log.busy_s": busy("auxfn.f_complement_log"),
        "auxfn.f_lower_bound.busy_s": busy("auxfn.f_lower_bound"),
        "auxfn.calls": len(f_dp) + len(named("auxfn.f_complement_log"))
                       + len(named("auxfn.f_lower_bound")),
    }
    out = {k: v / passes for k, v in per_pass.items()}
    out.update({
        "nets.queries_per_s": _ratio(queries, busy("nets.nearest_distances")),
        "nets.useful_frac": _ratio(sum((s.attrs or {}).get("useful", 0) for s in bounds),
                                   queries),
        "nets.probe_mb_computed": max((s.attrs or {}).get("nbytes", 0) for s in nets) / 1e6
                                  if nets else 0.0,
        "sampler.points_per_s": _ratio(sampled, busy("sampler.sample")),
        "covering.dist_evals_per_trial":
            _ratio(queries + sum((s.attrs or {}).get("n", 0) for s in bounds), len(bounds)),
        "experiments.trial_ms_p50": _quantile(trial_ms, 0.5) if trial_ms else 0.0,
        # reported only where at least ten trials lie beyond the 90th percentile
        "experiments.trial_ms_p90": _quantile(trial_ms, 0.9) if n_trials >= 100 else 0.0,
        "experiments.budget.est_over_actual": _ratio(est, actual),
    })
    return out
