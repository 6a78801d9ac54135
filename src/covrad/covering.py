"""Covering radii: exact on the interval, arcsine interval, Cantor set and
circle (has_exact_path), certified sandwich elsewhere, polylines included."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .auxfn import is_count, real
from .errors import UnsupportedDomainError
from .nets import ProbeNet, build_index
from .sampler import SampleSet
from .spaces import (
    ArcsineInterval,
    Cantor,
    Domain,
    IntervalUniform,
    Sphere,
    hausdorff_mass,
    row_norms,
    unit_ball_volume,
)


@dataclass(frozen=True)
class CoveringRadiusInterval:
    """Certified enclosure [lower, upper] of the covering radius, with
    upper = lower + probe_mesh; probe_mesh is 0 where the radius is exact."""

    lower: float
    upper: float
    probe_mesh: float

    def __post_init__(self):
        if not (0 <= self.lower <= self.upper):
            raise ValueError("need 0 <= lower <= upper")


@dataclass(frozen=True)
class WindowSpec:
    """Sub-window of the arcsine interval over which the supremum is taken:
    [1 - N^-a, 1] (right edge) or [-1 + N^-a, 1 - N^-a] (interior)."""

    a_exponent: float
    side: str = "right_edge"  # "right_edge" | "interior"

    def __post_init__(self):
        object.__setattr__(self, "a_exponent", real(self.a_exponent, "window exponent a"))
        if self.side not in ("right_edge", "interior"):
            raise ValueError("side must be 'right_edge' or 'interior'")

    def bounds(self, n_for_window: int) -> tuple[float, float]:
        if not is_count(n_for_window):
            raise ValueError(f"window size N must be a positive integer, got {n_for_window!r}")
        u = float(n_for_window) ** (-self.a_exponent)  # in (0, 1], as N >= 1 and a > 0
        if self.side == "right_edge":
            return 1.0 - u, 1.0
        return -1.0 + u, 1.0 - u


# ---------------------------------------------------------------------------
# Exact one-dimensional covering radii
# ---------------------------------------------------------------------------


def _interval_rho(xs: np.ndarray, lo: float, hi: float) -> float:
    """Exact covering radius of sorted samples xs of [lo, hi]."""
    gaps = np.diff(xs)
    interior = float(gaps.max() / 2.0) if gaps.size else 0.0
    return max(float(xs[0] - lo), float(hi - xs[-1]), interior)


def _circle_rho(points: np.ndarray) -> float:
    """Exact chord-metric covering radius of points on the unit circle."""
    angles = np.arctan2(points[:, 1], points[:, 0])
    angles.sort()
    gaps = np.diff(angles)
    wrap = 2.0 * math.pi - (angles[-1] - angles[0])
    max_gap = max(float(gaps.max()) if gaps.size else 0.0, float(wrap))
    return 2.0 * math.sin(max_gap / 4.0)


def _cantor_gap_values(a: np.ndarray, b: np.ndarray, depth: int) -> np.ndarray:
    """Largest distance from a truncated-Cantor point in [a, b] to {a, b}, per gap.

    The distance min(y - a, b - y) peaks at the midpoint m, so over the set's
    points it peaks at the set's floor or ceiling of m. Both come from a
    descent over the ternary digits: the floor takes digit 2 where m is at
    least the 2-child's smallest point, the ceiling where m is above the
    0-child's largest point (3^-i - 3^-depth above the prefix).
    """
    m = (a + b) / 2.0
    floor = np.zeros_like(m)
    ceil = np.zeros_like(m)
    for i in range(1, depth + 1):
        step = 2.0 * 3.0**-i
        floor += np.where(m >= floor + step, step, 0.0)
        ceil += np.where(m > ceil + (3.0**-i - 3.0**-depth), step, 0.0)
    return np.maximum(np.minimum(floor - a, b - floor), np.minimum(ceil - a, b - ceil))


def _cantor_rho(domain: Cantor, xs: np.ndarray) -> float:
    """Exact covering radius of sorted samples of the depth-D truncated Cantor set.

    The end terms are the distances to 0 and to 1 - 3^-D. Consecutive samples
    a < b first differ at some ternary digit j (0 in a, 2 in b), so the
    level-j hole of width 3^-j lies between them, and 3^-j < b - a < 3^(1-j).
    No set point lies in the hole, which bounds the gap's value by
    min(d/2, d - 3^-j) with d = b - a; j = ceil(-log3 d + 1e-9) rounds up,
    which keeps the bound an upper bound, and 1e-15 covers rounding. The
    digit descent runs on the 16 gaps of largest bound, then on every gap
    whose bound still exceeds the running maximum; the result equals the
    descent over all gaps. The bound needs the samples to be points of the
    set up to rounding: `sample` draws each within 2 ulp (at most 2.2e-16)
    of one, so a gap moves by at most 4.4e-16, inside the 1e-15.
    """
    best = max(float(xs[0]), (1.0 - 3.0**-domain.depth) - float(xs[-1]))
    if xs.size == 1:
        return best
    a, b = xs[:-1], xs[1:]
    d = b - a
    with np.errstate(divide="ignore"):
        j = np.ceil(-np.log(d) / math.log(3.0) + 1e-9)
    bound = np.minimum(d / 2.0, d - 3.0**-j) + 1e-15

    def descend(idx) -> float:
        return float(_cantor_gap_values(a[idx], b[idx], domain.depth).max())

    first = np.argpartition(bound, -min(16, d.size))[-16:]
    best = max(best, descend(first))
    bound[first] = 0.0
    rest = np.flatnonzero(bound > best)
    return max(best, descend(rest)) if rest.size else best


def _points(domain: Domain, x: SampleSet | np.ndarray) -> np.ndarray:
    """Sample points as a non-empty (N, k) array; a SampleSet must be of `domain`."""
    if isinstance(x, SampleSet) and x.domain != domain:
        raise ValueError(f"samples drawn on {x.domain!r}, not on {domain!r}")
    points = x.points if isinstance(x, SampleSet) else np.asarray(x, dtype=float)
    points = points.reshape(-1, 1) if points.ndim <= 1 else points
    if points.shape[0] == 0:
        raise ValueError("need at least one sample point")
    return points


def _line_range(domain: Domain) -> tuple[float, float] | None:
    """[lo, hi] of the domains that lie on a line, else None."""
    if isinstance(domain, IntervalUniform):
        return 0.0, 1.0
    if isinstance(domain, ArcsineInterval):
        return -1.0, 1.0
    if isinstance(domain, Cantor):
        return 0.0, 1.0 - 3.0**-domain.depth
    return None


def _line_samples(domain: Domain, x: SampleSet | np.ndarray) -> np.ndarray:
    """The sorted samples of a domain on a line; raw samples must be one column
    in its range."""
    points = _points(domain, x)
    raw = not isinstance(x, SampleSet)
    if raw and points.shape[1:] != (1,):
        raise ValueError(f"samples on {domain!r} must be one column, not of shape {points.shape}")
    xs = np.sort(points[:, 0])
    lo, hi = _line_range(domain)
    if raw and not lo <= xs[0] <= xs[-1] <= hi:
        raise ValueError(f"samples leave {domain!r}: range [{xs[0]}, {xs[-1]}]")
    return xs


def has_exact_path(domain: Domain) -> bool:
    """Whether covering_radius_1d takes the domain, so that studies take its
    covering radius exactly and build_probe_net refuses it: the interval,
    arcsine interval, Cantor set and circle."""
    return _line_range(domain) is not None or (isinstance(domain, Sphere) and domain.d == 1)


def covering_radius_1d(domain: Domain, x: SampleSet | np.ndarray) -> float:
    """Exact covering radius on the domains of has_exact_path: the interval,
    the arcsine interval and the circle from sorted gaps, and the truncated
    Cantor set from sorted gaps and a digit descent in the gaps that can hold
    the maximum; UnsupportedDomainError on any other domain.

    A SampleSet must be of `domain` and is taken as it is. Raw samples off
    the domain raise ValueError: on the line domains the sorted ends must lie
    in its range, and on the circle |‖x‖ − 1| <= 1e-9. That in-range samples
    are points of the Cantor set, which the prune relies on, is not checked:
    a vectorised digit check took about 20 ms at N = 1e5 on a 2-CPU host,
    five times the radius's 4 ms."""
    if not has_exact_path(domain):
        raise UnsupportedDomainError(f"no exact 1-D covering radius for {domain!r}")
    span = _line_range(domain)
    if span is not None:
        xs = _line_samples(domain, x)
        if isinstance(domain, Cantor):
            return _cantor_rho(domain, xs)
        return _interval_rho(xs, *span)
    points = _points(domain, x)  # on the circle
    if not isinstance(x, SampleSet) and (
            points.shape[1] != 2 or not np.all(np.abs(row_norms(points) - 1.0) <= 1e-9)):
        raise ValueError("samples leave the unit circle")
    return _circle_rho(points)


def covering_radius_window(
    domain: ArcsineInterval,
    x: SampleSet | np.ndarray,
    window: WindowSpec,
    n_for_window: int,
) -> float:
    """Exact sup-inf over a window of [-1,1]; samples outside the window
    still count as centers. Raw samples outside [-1, 1] raise ValueError."""
    if not isinstance(domain, ArcsineInterval):
        raise UnsupportedDomainError("windowed covering radius is an arcsine-interval operation")
    xs = _line_samples(domain, x)
    w0, w1 = window.bounds(n_for_window)
    # peaks of y -> min_j |y - x_j| lie at midpoints of consecutive samples, each
    # nearest to the two it lies between, and at the window's ends; the
    # midpoints are sorted like the samples, so the in-window ones are mids[i:j]
    mids = (xs[:-1] + xs[1:]) / 2.0
    i, j = np.searchsorted(mids, w0, "right"), np.searchsorted(mids, w1, "left")
    half = np.minimum(mids[i:j] - xs[i:j], xs[i + 1:j + 1] - mids[i:j])
    ends = np.array([w0, w1])
    pos = np.searchsorted(xs, ends)
    left = np.where(pos > 0, np.abs(ends - xs[np.maximum(pos - 1, 0)]), np.inf)
    right = np.where(pos < xs.size, np.abs(xs[np.minimum(pos, xs.size - 1)] - ends), np.inf)
    return float(max(np.minimum(left, right).max(), half.max(initial=0.0)))


# ---------------------------------------------------------------------------
# Certified sandwich bounds
# ---------------------------------------------------------------------------


def covering_radius_bounds(
    domain: Domain, x: SampleSet | np.ndarray, probe: ProbeNet | None
) -> CoveringRadiusInterval:
    """Certified enclosure [L, U] of the covering radius.

    With no probe net, L = U = covering_radius_1d(domain, x) and probe_mesh
    is 0 (UnsupportedDomainError off the one-dimensional domains). With a
    certified probe net of mesh delta, U = L + delta: L maximizes the
    nearest-sample distance over probe points, so L <= rho, and any domain
    point is within delta of a probe point, so rho <= L + delta. L is found
    from the probe cells that can hold it, bit for bit (covrad.nets).
    """
    if probe is None:
        rho = covering_radius_1d(domain, x)
        return CoveringRadiusInterval(lower=rho, upper=rho, probe_mesh=0.0)
    if probe.domain != domain:
        raise ValueError("probe net was certified for a different domain")
    lower = probe.max_nearest_distance(build_index(_points(domain, x)))
    return CoveringRadiusInterval(
        lower=lower, upper=lower + probe.certified_mesh, probe_mesh=probe.certified_mesh
    )


# ---------------------------------------------------------------------------
# Probe mesh scale for studies
# ---------------------------------------------------------------------------


def rho_scale(domain: Domain, n: int) -> float:
    """Predicted covering-radius scale at sample size N, used to size probe
    meshes and to rescale study outputs."""
    log_n = math.log(n)
    if isinstance(domain, Cantor):
        return (log_n / n) ** (math.log(3.0) / math.log(2.0))
    if isinstance(domain, ArcsineInterval):
        return log_n / n
    s = domain.intrinsic_dim
    mass = hausdorff_mass(domain)
    return (mass / unit_ball_volume(int(s)) * log_n / n) ** (1.0 / s)


# probe mesh over rho_scale when a study is given no eta
DEFAULT_ETA = 0.05


def probe_mesh_for(domain: Domain, n: int, eta: float = DEFAULT_ETA) -> float:
    return eta * rho_scale(domain, n)
