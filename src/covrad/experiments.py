"""Monte Carlo study orchestration and result persistence.

Every study follows the same pattern: sample point configurations per trial
from counter-based streams, reduce covering statistics over trials in stream
order (deterministic), and emit CSV rows with a JSONL metadata sidecar.
Data rows are byte-identical across reruns of the same configuration.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .auxfn import OccupancyParams, f_dp, f_lower_bound, is_count, real
from .covering import (
    DEFAULT_ETA,
    WindowSpec,
    covering_radius_bounds,
    covering_radius_window,
    has_exact_path,
    probe_mesh_for,
    rho_scale,
)
from .errors import BudgetExceededError, UnsupportedDomainError
from .nets import axis_points, build_probe_net
from .sampler import GENERATOR_NAME, SeedSpec, sample
from .spaces import (
    ArcsineInterval,
    Cube,
    Domain,
    IntervalUniform,
    Sphere,
    domain_to_dict,
    limit_constant,
    unit_ball_volume,
)

BUDGET_LIMIT = 1e10  # estimated distance evaluations before refusal
_POOL_FROM = 2**15  # exact-path trials from this N on run on threads (sweep in CHANGES.md)
_POOL_SAMPLES = 2**20  # samples in flight in one N's pooled trials, at most (16 MB on S^1)


# ---------------------------------------------------------------------------
# Configuration and rows
# ---------------------------------------------------------------------------


@dataclass
class StudyConfig:
    domain: Domain
    n_grid: list[int]
    trials: int
    p: float = 1.0
    probe_eta: float = DEFAULT_ETA
    master_seed: int = 0
    out: str | None = None
    force: bool = False

    def __post_init__(self):
        _check_study(self.n_grid, self.trials)
        # Python floats, so that no row computes in (or echoes) a NumPy float
        self.p = real(self.p, "moment order p", at_least=1)
        self.probe_eta = real(self.probe_eta, "probe_eta")


def _check_study(n_grid, trials: int) -> None:
    """Every study needs a strictly increasing grid of integers N >= 2 and at
    least two trials."""
    grid = list(n_grid)
    ints = all(is_count(v) for v in (*grid, trials))
    if not (ints and grid and grid[0] >= 2 and all(a < b for a, b in zip(grid, grid[1:]))
            and trials >= 2):
        raise ValueError("need a strictly increasing grid of integers N >= 2 and at least two "
                         f"trials; got N grid {grid}, {trials} trials")


@dataclass(frozen=True)
class StudyRow:
    n: int
    trials: int
    mean_rho_p_lower: float
    mean_rho_p_upper: float
    ci_half_width: float
    rescaled: float
    target: float | None


@dataclass(frozen=True)
class TailRow:
    n: int
    threshold: float
    prob_lower_exceeds: float
    prob_upper_exceeds: float
    bound_form: str


@dataclass(frozen=True)
class ZnRow:
    n: int
    trials: int
    mean: float
    stdev: float
    frac_within_01: float
    frac_within_02: float


# ---------------------------------------------------------------------------
# Output writer
# ---------------------------------------------------------------------------


class StudyWriter:
    """CSV rows go to a temporary file that close() moves onto `path` (with run
    metadata as JSONL) and discard() deletes, leaving `path` as it was."""

    def __init__(self, path: str | Path | None, header: list[str]):
        if path == "":  # a shell's unset variable; None alone means no file
            raise ValueError("the output path is empty")
        self.path = None if path is None else Path(path)
        if self.path and self.path.is_dir():  # else close() fails after every trial
            raise ValueError(f"the output path {str(path)!r} is a directory")
        self.t0 = time.time()
        if self.path:
            self._tmp = self.path.with_name(f".{self.path.name}.tmp")
            self._fh = open(self._tmp, "w")
            self._fh.write(",".join(header) + "\n")
            self.meta_path = self.path.with_suffix(self.path.suffix + ".meta.jsonl")
        else:
            self._fh = None

    def write(self, values) -> None:
        if self._fh:
            self._fh.write(",".join(_fmt(v) for v in values) + "\n")

    def close(self, config_echo: dict) -> None:
        if self._fh:
            # serialised first: a config JSON cannot hold raises before the
            # CSV moves, leaving `path` as it was
            meta = json.dumps({
                "config": config_echo,
                "generator": GENERATOR_NAME,
                "version": __version__,
                "wall_time_s": round(time.time() - self.t0, 3),
            })
            self._fh.close()
            self._tmp.replace(self.path)
            self.meta_path.write_text(meta + "\n")

    def discard(self) -> None:
        if self._fh:
            self._fh.close()
            self._tmp.unlink(missing_ok=True)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))  # a NumPy float subclass reprs as np.float64(...)
    return str(v)


# ---------------------------------------------------------------------------
# Budget model
# ---------------------------------------------------------------------------


def check_budget(n_grid, trials: int, force: bool = False, net_axes=()) -> float:
    """Estimated cost of a study, T * sum of N log2 N over its grid: each
    trial sorts its N samples, or builds a tree over them and queries it with
    about N rows of log2 N steps; plus A log2 A for each probe net of A axis
    coordinates (they grow with 1/eta), each charged once as a sample. Refuses
    a study above BUDGET_LIMIT unless forced (force must be True or False)."""
    if not isinstance(force, bool):
        raise ValueError(f"force must be true or false, got {force!r}")
    n_log2_n = lambda ns: sum(n * max(1.0, math.log2(n)) for n in ns)
    cost = trials * n_log2_n(n_grid) + n_log2_n(net_axes)
    print(f"estimated cost: {cost:.3g} distance evaluations", file=sys.stderr)
    if cost > BUDGET_LIMIT and not force:
        raise BudgetExceededError(
            f"estimated cost {cost:.3g} exceeds {BUDGET_LIMIT:.0e}; rerun with --force"
        )
    return cost


# ---------------------------------------------------------------------------
# Per-trial kernels: kernel(domain, n, seed, net) for one trial
# ---------------------------------------------------------------------------


def _trial_bounds(domain: Domain, n: int, seed: SeedSpec, net) -> tuple[float, float]:
    b = covering_radius_bounds(domain, sample(domain, n, seed), net)
    return b.lower, b.upper


# ---------------------------------------------------------------------------
# Trial engine
# ---------------------------------------------------------------------------


def _pool_size(n: int, trials: int, net) -> int:
    """Threads for one N's trials: 1 for a probe-net study or below _POOL_FROM,
    else the usable CPUs, at most `trials` and _POOL_SAMPLES // n (at least 1)."""
    if net is not None or n < _POOL_FROM:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, trials, _POOL_SAMPLES // n))


def _run_study(domain: Domain, n_grid, trials: int, master_seed: int, *, reduce,
               header: list[str], echo: dict, out: str | None, eta: float = DEFAULT_ETA,
               force: bool = False, kernel=_trial_bounds) -> list:
    """The trial loop behind every study.

    The grid, trials and seed are checked and the cost estimated from the
    grid, trials and nets' axis_points (check_budget) before the first sample
    or net; eta is a float that auxfn.real has checked. Per N: net =
    build_probe_net(domain, probe_mesh_for(domain, n, eta)), once (None on the
    exact paths); then kernel(domain, n, SeedSpec(master_seed, t), net) for t in
    range(trials), by default the trial's (L, U) from covering_radius_bounds,
    stacked in stream order into an array with one row per trial; then
    reduce(n, values) yields the output rows. The sidecar echoes the domain,
    grid, trials and seed plus `echo`, the study's own parameters.

    Exact-path trials (no net) at N >= _POOL_FROM run on _pool_size threads,
    mapped in stream order, so every value, error and CSV byte is as in one
    thread: their NumPy and SciPy kernels release the GIL, and at most
    _POOL_SAMPLES samples are in flight. Other trials run in the calling thread:
    smaller ones would trade the GIL, and a net trial holds its tree and walk
    (about 10 MB at N = 1e5) while its top query already runs on every CPU.
    """
    n_grid = list(n_grid)
    _check_study(n_grid, trials)
    # Python numbers, so that no kernel or row computes in a NumPy type; SeedSpec checks the seed
    n_grid, trials = [int(n) for n in n_grid], int(trials)
    master_seed = int(SeedSpec(master_seed).master_seed)
    mesh = {} if has_exact_path(domain) else {n: probe_mesh_for(domain, n, eta) for n in n_grid}
    check_budget(n_grid, trials, force, [axis_points(domain, m) for m in mesh.values()])
    config = {"domain": domain_to_dict(domain), "n_grid": n_grid, "trials": trials,
              "master_seed": master_seed, **echo}

    def rows():
        for n in n_grid:
            net = build_probe_net(domain, mesh[n]) if mesh else None
            trial = lambda t: kernel(domain, n, SeedSpec(master_seed, t), net)
            workers = _pool_size(n, trials, net)
            if workers == 1:
                values = [trial(t) for t in range(trials)]
            else:  # in slices of 64 trials per thread: a pending future holds about 2 KB
                with ThreadPoolExecutor(workers) as pool:
                    values = [v for lo in range(0, trials, 64 * workers)
                              for v in pool.map(trial, range(trials)[lo:lo + 64 * workers])]
            yield from reduce(n, np.array(values))

    return _write_rows(rows(), header, config, out)


def _write_rows(rows, header: list[str], config: dict, out: str | None) -> list:
    """Write each row to the CSV as it is made, then the sidecar; returns the rows."""
    writer = StudyWriter(out, header)
    done = []
    try:
        for row in rows:
            writer.write(row.values() if isinstance(row, dict) else astuple(row))
            done.append(row)
        writer.close(config)
    except BaseException:
        writer.discard()
        raise
    return done


def _ci_half_width(values: np.ndarray) -> float:
    """Half-width of the 99% normal confidence interval for the mean."""
    return 2.576 * float(values.std(ddof=1)) / math.sqrt(len(values))


_STUDY_HEADER = ["N", "T", "mean_rho_p_lower", "mean_rho_p_upper",
                 "ci_half_width", "rescaled", "target"]


# ---------------------------------------------------------------------------
# Studies
# ---------------------------------------------------------------------------


def run_expectation_study(config: StudyConfig) -> list[StudyRow]:
    """Per N: trial means of rho^p bounds, CI, and the rescaled midpoint
    against the domain's limit constant (absent where no sharp constant)."""
    try:
        target = limit_constant(config.domain, config.p)
    except UnsupportedDomainError:
        target = None

    def reduce(n, bounds):
        # float ** per value: NumPy's vectorised power may round differently
        lows, ups = (np.array([b**config.p for b in col]) for col in bounds.T.tolist())
        mids = (lows + ups) / 2.0
        rescale = (n / math.log(n)) ** (config.p / config.domain.intrinsic_dim)
        yield StudyRow(n=n, trials=config.trials, mean_rho_p_lower=float(lows.mean()),
                       mean_rho_p_upper=float(ups.mean()), ci_half_width=_ci_half_width(mids),
                       rescaled=float(mids.mean()) * rescale, target=target)

    return _run_study(
        config.domain, config.n_grid, config.trials, config.master_seed, reduce=reduce,
        header=_STUDY_HEADER,
        echo={"study": "expectation", "p": config.p, "probe_eta": config.probe_eta},
        out=config.out, eta=config.probe_eta, force=config.force)


def run_tail_study(domain: Domain, n: int, trials: int, thresholds=None, master_seed: int = 0,
                   probe_eta: float = DEFAULT_ETA, out: str | None = None,
                   force: bool = False) -> list[TailRow]:
    """Empirical tail probabilities P(L >= t) and P(U >= t) per threshold;
    by default t = k log(N)/N for k in 1, 2, 5, 10."""
    _check_study([n], trials)  # before log(N) / N makes the default thresholds
    probe_eta = real(probe_eta, "probe_eta")
    if thresholds is None:
        base = math.log(n) / n
        thresholds = [k * base for k in (1, 2, 5, 10)]
    thresholds = [real(t, "threshold", at_least=0) for t in thresholds]
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError(f"thresholds must be increasing, got {thresholds}")

    def reduce(n, bounds):
        for thr in thresholds:
            yield TailRow(n=n, threshold=thr,
                          prob_lower_exceeds=float((bounds[:, 0] >= thr).mean()),
                          prob_upper_exceeds=float((bounds[:, 1] >= thr).mean()),
                          bound_form="upper-tail-polynomial-decay")

    return _run_study(
        domain, [n], trials, master_seed, reduce=reduce,
        header=["N", "threshold", "prob_lower_exceeds", "prob_upper_exceeds", "bound_form"],
        echo={"study": "tail", "thresholds": thresholds, "probe_eta": probe_eta}, out=out,
        eta=probe_eta, force=force)


def run_zn_study(d: int, n_grid, trials: int, master_seed: int = 0, probe_eta: float = DEFAULT_ETA,
                 out: str | None = None, force: bool = False) -> list[ZnRow]:
    """Distribution of the rescaled sphere covering radius Z_N, which
    converges in probability to 1."""
    if not is_count(d) or d not in (1, 2):
        raise ValueError(f"Z_N study supports the integers d in {{1, 2}}, got {d!r}")
    domain, probe_eta = Sphere(d), real(probe_eta, "probe_eta")
    scale_const = unit_ball_volume(d) / ((d + 1) * unit_ball_volume(d + 1))

    def reduce(n, bounds):
        factor = (scale_const * n / math.log(n)) ** (1.0 / d)
        zs = (bounds[:, 0] + bounds[:, 1]) / 2.0 * factor
        yield ZnRow(n=n, trials=trials, mean=float(zs.mean()), stdev=float(zs.std(ddof=1)),
                    frac_within_01=float((np.abs(zs - 1.0) <= 0.1).mean()),
                    frac_within_02=float((np.abs(zs - 1.0) <= 0.2).mean()))

    return _run_study(
        domain, n_grid, trials, master_seed, reduce=reduce,
        header=["N", "T", "mean", "stdev", "frac_within_01", "frac_within_02"],
        echo={"study": "zn", "d": int(d), "probe_eta": probe_eta}, out=out, eta=probe_eta,
        force=force)


def run_arcsine_study(a_exponent: float, side: str, n_grid, trials: int, master_seed: int = 0,
                      out: str | None = None, force: bool = False) -> list[StudyRow]:
    """Windowed covering radii on the arcsine interval, rescaled by the
    two-sided-bound rate for the given window regime."""
    window = WindowSpec(a_exponent=a_exponent, side=side)
    a_exponent = window.a_exponent

    def kernel(domain, n, seed, net):
        return covering_radius_window(domain, sample(domain, n, seed), window, n)

    def reduce(n, vals):
        if side == "interior":
            rescale = n / math.log(n)
        elif a_exponent >= 2.0:
            rescale = float(n) ** 2
        else:
            rescale = float(n) ** (1.0 + a_exponent / 2.0) / math.log(n)
        mean = float(vals.mean())
        yield StudyRow(n=n, trials=trials, mean_rho_p_lower=mean, mean_rho_p_upper=mean,
                       ci_half_width=_ci_half_width(vals), rescaled=mean * rescale,
                       target=None)

    return _run_study(
        ArcsineInterval(), n_grid, trials, master_seed, reduce=reduce, header=_STUDY_HEADER,
        echo={"study": "arcsine", "a_exponent": a_exponent, "side": side}, out=out,
        force=force, kernel=kernel)


def run_random_vs_structured(d: int, n_grid, trials: int, master_seed: int = 0,
                             probe_eta: float = DEFAULT_ETA, out: str | None = None,
                             force: bool = False) -> list[dict]:
    """Mean random covering radius vs the centered regular grid configuration
    on the cube; the ratio grows like (log N)^(1/d)."""
    if not is_count(d) or d not in (1, 2, 3):
        raise ValueError(f"random-vs-structured study supports the integers d in {{1, 2, 3}}, "
                         f"got {d!r}")
    domain, probe_eta = IntervalUniform() if d == 1 else Cube(d), real(probe_eta, "probe_eta")

    def reduce(n, bounds):
        mean = float(((bounds[:, 0] + bounds[:, 1]) / 2.0).mean())
        k = int(math.floor(n ** (1.0 / d)))
        grid_rho = math.sqrt(d) / (2.0 * k)  # centered k^d lattice, exact
        yield {"N": n, "T": trials, "random_mean_rho": mean,
               "grid_rho": grid_rho, "ratio": mean / grid_rho}

    return _run_study(
        domain, n_grid, trials, master_seed, reduce=reduce,
        header=["N", "T", "random_mean_rho", "grid_rho", "ratio"],
        echo={"study": "versus", "d": int(d), "probe_eta": probe_eta}, out=out, eta=probe_eta,
        force=force)


def run_epsnet_study(domain: Domain, n_grid, trials: int, c_mult: float, master_seed: int = 0,
                     out: str | None = None, force: bool = False) -> list[dict]:
    """Fraction of random configurations that form an eps-net at
    eps = c_mult * (mass/upsilon_s * log N / N)^(1/s).

    Each trial's verdict comes from its covering_radius_bounds [L, U]: YES
    (the radius is at most eps) where U <= eps, NO where L > eps, UNKNOWN
    otherwise. yes_fraction counts YES, yes_or_unknown_fraction counts
    L <= eps. The probe net has mesh probe_mesh_for(domain, N, c_mult/20) =
    eps/20 up to rounding. On the exact paths L = U, so yes_fraction ==
    yes_or_unknown_fraction."""
    c_mult = real(c_mult, "c_mult")

    def reduce(n, bounds):
        eps = c_mult * rho_scale(domain, n)
        yield {"N": n, "T": trials, "eps": eps,
               "yes_fraction": int((bounds[:, 1] <= eps).sum()) / trials,
               "yes_or_unknown_fraction": int((bounds[:, 0] <= eps).sum()) / trials}

    return _run_study(
        domain, n_grid, trials, master_seed, reduce=reduce,
        header=["N", "T", "eps", "yes_fraction", "yes_or_unknown_fraction"],
        echo={"study": "epsnet", "c_mult": c_mult}, out=out, eta=c_mult / 20.0, force=force)


def dump_f_grid(n_values, n_cell_measures, m_values, out: str | None = None) -> list[dict]:
    """Evaluate f and its lower bound over a parameter grid, as CSV rows.

    Every N and m must be a positive integer and every n a finite positive
    number, checked before the first row; the triples without m <= n <= N
    are then skipped."""
    if not all(is_count(v) for v in (*n_values, *m_values)):
        raise ValueError(f"N and m must be positive integers; got N {list(n_values)}, "
                         f"m {list(m_values)}")
    for v in n_cell_measures:
        real(v, "n")  # checked only: an integer n reaches the occupancy sums as given

    def rows():
        for big_n in n_values:
            for n in n_cell_measures:
                for m in m_values:
                    if not (m <= n <= big_n):
                        continue
                    params = OccupancyParams(big_n, n, m)
                    yield {"N": big_n, "n": n, "m": m,
                           "f_dp": f_dp(params), "f_lower_bound": f_lower_bound(params)}

    return _write_rows(rows(), ["N", "n", "m", "f_dp", "f_lower_bound"],
                       {"study": "fgrid", "n_values": list(n_values),
                        "n_cell_measures": list(n_cell_measures),
                        "m_values": list(m_values)}, out)
