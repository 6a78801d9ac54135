"""Reference values that only the tests use: regularity witnesses of the catalog
domains, ball measures, the exact expected covering radius on the circle, the
windowed covering radius by a sorted search, the exact covering radius of a
polyline from its envelope crossings, the probe nets of the domains with
an exact path (the interval, arcsine interval, circle and Cantor set), the
occupancy probability at high precision, auxfn's occupancy sums as written on
mpmath's mpf objects, and the acceptance bands.

No study, CLI command or tool computes from these; the tests check the library
against them, and the witness spot-check checks them against measured ball
masses.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import mpmath
import numpy as np

from covrad.auxfn import OccupancyParams, _log_empty_one_cell
from covrad.errors import ResourceLimitError, UnsupportedDomainError
from covrad.nets import ProbeNet, _Piece, _segment, _sphere_piece, build_index
from covrad.sampler import SeedSpec, sample
from covrad.spaces import (
    LOG2_OVER_LOG3,
    ArcsineInterval,
    Ball,
    Cantor,
    Cube,
    Domain,
    IntervalUniform,
    Polyhedron3,
    Polyline,
    Sphere,
    _dihedral_angles,
    unit_ball_volume,
)

# ---------------------------------------------------------------------------
# Regularity witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegularityWitness:
    """Two-sided bound c_lower * Phi(r) <= mu(B(x,r)) <= c_upper * Phi(r) for r < r0.

    Phi(r) = r^s (power law) or r^alpha * log^beta(1/r).
    """

    s: float
    c_lower: float
    c_upper: float
    r0: float
    log_beta: float = 0.0

    def __post_init__(self):
        if not (0 < self.c_lower <= self.c_upper):
            raise ValueError("need 0 < c_lower <= c_upper")
        if self.r0 <= 0 or self.s <= 0 or self.log_beta < 0:
            raise ValueError("need r0 > 0, s > 0, log_beta >= 0")

    def phi(self, r: float) -> float:
        out = r**self.s
        if self.log_beta:
            out *= math.log(1.0 / r) ** self.log_beta
        return out


def regularity_witness(domain: Domain) -> RegularityWitness:
    """Built-in regularity witness (w.r.t. the normalized measure) per kind.

    Constants are conservative hand proofs; the test suite spot-checks them
    by Monte Carlo ball-measure estimation. The arcsine witness is only valid
    on the interior window [-3/4, 3/4]. Polyhedron constants assume convexity
    and are computed exactly, not estimated: c_lower from the smallest vertex
    solid angle (Gauss-Bonnet over the dihedral angles) and r0 as half the
    shortest edge, over the edges the polyhedron derives from its faces.
    """
    if isinstance(domain, IntervalUniform):
        return RegularityWitness(s=1, c_lower=1.0, c_upper=2.0, r0=0.5)
    if isinstance(domain, ArcsineInterval):
        # density on [-3/4, 3/4] lies in [1/pi, 1/(pi sqrt(7/16))]
        return RegularityWitness(
            s=1, c_lower=1.0 / math.pi, c_upper=2.0 / (math.pi * math.sqrt(7.0 / 16.0)), r0=0.125
        )
    if isinstance(domain, Cube):
        d = domain.d
        ud = unit_ball_volume(d)
        return RegularityWitness(s=d, c_lower=ud / 2**d, c_upper=ud, r0=0.5)
    if isinstance(domain, Sphere):
        d = domain.d
        area = (d + 1) * unit_ball_volume(d + 1)
        ud = unit_ball_volume(d)
        # geodesic cap radius phi(r) in [r, pi r / 2]; sin t in [2t/pi, t]
        return RegularityWitness(
            s=d,
            c_lower=ud * (2.0 / math.pi) ** (d - 1) / area,
            c_upper=ud * (math.pi / 2.0) ** d / area,
            r0=2.0,
        )
    if isinstance(domain, Ball):
        d = domain.d
        # ball of radius r/2 tangent inward at the worst (boundary) point
        return RegularityWitness(s=d, c_lower=0.5**d, c_upper=1.0, r0=1.0)
    if isinstance(domain, Polyline):
        n_edges = len(domain.edge_lengths)
        length = domain.total_length
        return RegularityWitness(
            s=1, c_lower=1.0 / length, c_upper=2.0 * n_edges / length, r0=length / 2.0
        )
    if isinstance(domain, Polyhedron3):
        omega = _min_vertex_solid_angle(domain)
        r0 = float(min(np.linalg.norm(domain.vertices[e[1]] - domain.vertices[e[0]])
                       for e in domain.edges)) / 2.0
        return RegularityWitness(
            s=3,
            c_lower=omega / (3.0 * domain.volume),
            c_upper=unit_ball_volume(3) / domain.volume,
            r0=r0,
        )
    if isinstance(domain, Cantor):
        # cylinder counting: mu(B(x,r)) in [r^s / 2, 4 r^s] for r < 1/3
        return RegularityWitness(s=LOG2_OVER_LOG3, c_lower=0.5, c_upper=4.0, r0=1.0 / 3.0)
    raise UnsupportedDomainError(f"no witness for {domain!r}")


def _min_vertex_solid_angle(domain: Polyhedron3) -> float:
    """Smallest vertex solid angle (steradians), exact by Gauss-Bonnet.

    Around vertex v the solid is a cone over a spherical polygon whose corner
    angles are the dihedral angles theta_e of the k_v edges at v, so its
    solid angle is sum_e theta_e - (k_v - 2) pi.
    """
    theta = _dihedral_angles(domain)
    ends = np.array([e[:2] for e in domain.edges]).ravel()
    k = np.bincount(ends, minlength=len(domain.vertices))
    total = np.bincount(ends, weights=np.repeat(theta, 2), minlength=len(domain.vertices))
    # a vertex on no edge is interior to the decomposition and has no cone
    return float((total - (k - 2) * math.pi)[k > 0].min())


# ---------------------------------------------------------------------------
# Ball measures
# ---------------------------------------------------------------------------


def _arcsine_cdf(x: float) -> float:
    return 1.0 - math.acos(min(1.0, max(-1.0, x))) / math.pi


def ball_measure(
    domain: Domain,
    center,
    r: float,
    mc_budget: int = 100_000,
    seed: SeedSpec | None = None,
) -> tuple[float, float]:
    """Normalized measure of the ball B(center, r): (estimate, 99% CI half-width).

    Exact closed forms for the interval, arcsine interval and circle
    (half-width 0); Monte Carlo with a binomial normal-approximation CI
    otherwise.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    c = np.asarray(center, dtype=float).ravel()
    if isinstance(domain, IntervalUniform):
        return max(0.0, min(1.0, c[0] + r) - max(0.0, c[0] - r)), 0.0
    if isinstance(domain, ArcsineInterval):
        return _arcsine_cdf(c[0] + r) - _arcsine_cdf(c[0] - r), 0.0
    if isinstance(domain, Sphere) and domain.d == 1:
        if r >= 2.0:
            return 1.0, 0.0
        return 2.0 * math.asin(r / 2.0) / math.pi, 0.0

    if mc_budget < 100:
        raise ValueError("Monte Carlo ball measure needs a budget of at least 100")
    seed = seed or SeedSpec(0, 0)
    pts = sample(domain, mc_budget, seed).points
    hits = np.linalg.norm(pts - c, axis=1) <= r
    p = float(hits.mean())
    half = 2.576 * math.sqrt(max(p * (1.0 - p), 1.0 / mc_budget) / mc_budget)
    return p, half


# ---------------------------------------------------------------------------
# Circle expectation
# ---------------------------------------------------------------------------


def circle_expectation_oracle(n: int, circumference: float = 2.0 * math.pi) -> float:
    """Exact expected arclength covering radius of N uniform points on a
    circle: half the expected maximal spacing, L * H_N / (2N)."""
    if n < 1:
        raise ValueError("need at least one point")
    harmonic = sum(1.0 / k for k in range(1, n + 1))
    return circumference * harmonic / (2.0 * n)


# ---------------------------------------------------------------------------
# Windowed covering radius
# ---------------------------------------------------------------------------


def window_radius_searchsorted(xs: np.ndarray, w0: float, w1: float) -> float:
    """covering.covering_radius_window on sorted samples xs and the window
    [w0, w1] as it was written with a sorted search for every candidate; the
    library takes each in-window midpoint's half-gap directly and must equal
    this bit for bit."""
    # peaks of y -> min_j |y - x_j| lie at midpoints of consecutive samples
    mids = (xs[:-1] + xs[1:]) / 2.0
    cand = np.concatenate([[w0, w1], mids[(mids > w0) & (mids < w1)]])
    pos = np.searchsorted(xs, cand)
    left = np.where(pos > 0, np.abs(cand - xs[np.maximum(pos - 1, 0)]), np.inf)
    right = np.where(pos < xs.size, np.abs(xs[np.minimum(pos, xs.size - 1)] - cand), np.inf)
    return float(np.minimum(left, right).max())


# ---------------------------------------------------------------------------
# Exact covering radius of a polyline
# ---------------------------------------------------------------------------


def polyline_rho(domain: Polyline, points: np.ndarray) -> float:
    """Exact sup over the polyline of the distance to the nearest sample.

    Per edge, each sample point x_j restricted to the edge line gives the
    distance function sqrt((t - t_j)^2 + h_j^2); the max of their lower
    envelope is attained at an edge endpoint or at a pairwise crossing.
    O(N^2) candidates per edge, each answered by one k-d tree query, in
    O(N^2) memory. The library has no exact polyline path
    (covering.has_exact_path); the polyline nets are checked against this.
    """
    index = build_index(points)
    best = 0.0
    for i in range(len(domain.vertices) - 1):
        a = domain.vertices[i]
        b = domain.vertices[i + 1]
        length = float(np.linalg.norm(b - a))
        u = (b - a) / length
        t_j = (points - a) @ u
        perp = points - a - np.outer(t_j, u)
        h2_j = np.einsum("ij,ij->i", perp, perp)

        candidates = [np.array([0.0, length])]
        # crossing of envelope branches j < k: linear equation in t
        c_j = t_j**2 + h2_j
        for j in range(len(t_j)):
            with np.errstate(divide="ignore", invalid="ignore"):
                t_cross = (c_j[j + 1:] - c_j[j]) / (2.0 * (t_j[j + 1:] - t_j[j]))
            candidates.append(t_cross[np.isfinite(t_cross) & (t_cross > 0.0) & (t_cross < length)])
        t_cand = np.concatenate(candidates)
        best = max(best, float(index.nearest_distances(a + t_cand[:, None] * u).max()))
    return best


# ---------------------------------------------------------------------------
# Probe nets of the exact-path domains
# ---------------------------------------------------------------------------


def cantor_net(domain: Cantor, mesh: float) -> ProbeNet:
    """A probe net of the truncated Cantor set: both endpoints of every depth-k
    cylinder, sorted, as one axis, for the smallest k >= 1 with 3^-k <= mesh
    (at most the depth). Each point of the set lies in a depth-k cylinder of
    length 3^-k, so it is within 3^-k of either endpoint: the certified mesh is
    3^-k. Cantor studies take the exact path (covering.has_exact_path); the
    tests check that path against this net, and run the walk on its axis,
    the one that is not a linspace."""
    k = min(domain.depth, max(1, math.ceil(-math.log(mesh) / math.log(3.0))))
    lefts = np.array([0.0])
    for depth in range(1, k + 1):
        lefts = np.concatenate([lefts, lefts + 2.0 * 3.0**-depth])
    cyl = 3.0**-k
    axis = np.unique(np.concatenate([lefts, lefts + cyl]))
    return ProbeNet(domain=domain, pieces=(_Piece((axis,)),), certified_mesh=cyl)


def exact_path_net(domain: Domain, mesh: float) -> ProbeNet:
    """A probe net of a domain of covering.has_exact_path, which
    build_probe_net refuses: the arclength grid of step 2 * mesh on the
    interval and arcsine interval (nets._segment), the projected square of
    the circle (nets._sphere_piece, as for every other sphere) and the
    Cantor set's cylinder ends (cantor_net). Studies take these domains on
    the exact path; the tests check that path against these nets, and run
    the walk on them."""
    if isinstance(domain, Cantor):
        return cantor_net(domain, mesh)
    if isinstance(domain, Sphere) and domain.d == 1:
        piece = _sphere_piece(1, mesh)
    elif isinstance(domain, (IntervalUniform, ArcsineInterval)):
        lo = 0.0 if isinstance(domain, IntervalUniform) else -1.0
        piece = _segment(np.array([lo]), np.array([1.0]), mesh)
    else:
        raise UnsupportedDomainError(f"{domain!r} has no exact path; use build_probe_net")
    return ProbeNet(domain=domain, pieces=(piece,), certified_mesh=mesh)


# ---------------------------------------------------------------------------
# Occupancy probability
# ---------------------------------------------------------------------------


def occupancy_reference(params: OccupancyParams, digits: int = 120) -> float:
    """f(N, n, m) from the whole alternating sum at `digits` significant digits,
    rounded once to the nearest double. Each term C(m, k) (1 - k/n)^N comes from
    mpmath.binomial and mpmath.power, not from auxfn's exact-integer kernel.
    The sum cancels about lam / ln 10 digits for lam expected empty cells, far
    fewer than `digits` wherever f_dp does not saturate (lam <= 45)."""
    with mpmath.workdps(digits):
        n = mpmath.mpf(params.cells_inv_measure)
        m, big_n = params.n_cells, params.n_points
        return float(mpmath.fsum((-1) ** (k + 1) * mpmath.binomial(m, k)
                                 * mpmath.power(1 - k / n, big_n) for k in range(1, m + 1)))


# The high-precision sums of auxfn as written on mpmath's mpf objects, under
# mpmath.workdps. auxfn runs the same steps on raw mpmath.libmp tuples without
# the global context; its values must equal these bit for bit.


def mpf_terms(params: OccupancyParams, start: int):
    """Yield (k, C(m, k) (1 - k/n)^N) for k = start..m at the caller's mpmath
    precision. The binomial is carried as an exact Python integer, so only the
    power and the product round."""
    n = mpmath.mpf(params.cells_inv_measure)
    big_n, m = params.n_points, params.n_cells
    comb = math.comb(m, start)
    for k in range(start, m + 1):
        yield k, comb * mpmath.exp(big_n * mpmath.log1p(-k / n))
        comb = comb * (m - k) // (k + 1)


def f_dp_mpf(params: OccupancyParams) -> float:
    """auxfn.f_dp on mpf objects."""
    log_q = _log_empty_one_cell(params)
    # expected empty cells m*q; all-occupied probability <= (1-q)^m
    log_all_occupied_bound = params.n_cells * math.log1p(-math.exp(log_q)) if log_q < 0 else 0.0
    if log_all_occupied_bound < -45.0:
        return 1.0
    # lam <= 45 here, since m log1p(-q) <= -m q = -lam
    lam = math.exp(math.log(params.n_cells) + log_q)
    digits = 30 + int(0.5 * lam)
    with mpmath.workdps(digits):
        total = mpmath.mpf(0)
        tiny = mpmath.mpf(10) ** (-digits - 10)
        for k, term in mpf_terms(params, 1):
            total += term if k % 2 == 1 else -term
            if k > 2.0 * lam + 20 and term < tiny:
                break
        return float(min(1.0, max(0.0, total)))


def f_complement_log_mpf(params: OccupancyParams) -> float:
    """auxfn.f_complement_log on mpf objects."""
    log_q = _log_empty_one_cell(params)
    lam = params.n_cells * math.exp(log_q)  # expected number of empty cells
    digits = 40 + int(lam)
    with mpmath.workdps(digits):
        total = mpmath.mpf(0)
        tiny = mpmath.mpf(10) ** (-digits)
        for k, term in mpf_terms(params, 0):
            total += term if k % 2 == 0 else -term
            if k > 3.0 * lam + 20 and abs(term) < tiny:
                break
        if total <= 0:
            raise ResourceLimitError("complement underflowed the working precision")
        return float(mpmath.log(total))


# ---------------------------------------------------------------------------
# Acceptance bands
# ---------------------------------------------------------------------------


def load_bands() -> dict:
    """Pilot-derived acceptance bands (with the seeds that produced them), from
    covrad's packaged bands.json."""
    with resources.files("covrad").joinpath("bands.json").open() as fh:
        return json.load(fh)
