import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import ball_measure, cantor_net, window_radius_searchsorted
from scipy.spatial import ConvexHull, cKDTree
from test_nets import CERT_DOMAINS, probe_net
from test_spaces import equilateral_prism, regular_tetrahedron

from covrad import nets
from covrad.covering import (
    CoveringRadiusInterval,
    WindowSpec,
    _cantor_gap_values,
    covering_radius_1d,
    covering_radius_bounds,
    covering_radius_window,
    probe_mesh_for,
    rho_scale,
)
from covrad.errors import UnsupportedDomainError
from covrad.nets import ProbeNet, build_index, build_probe_net
from covrad.sampler import SeedSpec, sample
from covrad.spaces import (
    ArcsineInterval,
    Ball,
    Cantor,
    Cube,
    IntervalUniform,
    Polyline,
    Sphere,
    unit_box_polyhedron,
)


def circle_points(angles):
    a = np.asarray(angles, dtype=float)
    return np.stack([np.cos(a), np.sin(a)], axis=1)


class TestCoveringRadius1D:
    def test_interval_endpoints(self):
        assert covering_radius_1d(IntervalUniform(), np.array([0.0, 1.0])) == 0.5

    def test_interval_center(self):
        assert covering_radius_1d(IntervalUniform(), np.array([0.5])) == 0.5

    def test_circle_equispaced(self):
        pts = circle_points(np.arange(4) * math.pi / 2.0)
        assert covering_radius_1d(Sphere(1), pts) == pytest.approx(
            2.0 * math.sin(math.pi / 8.0), rel=1e-12
        )

    def test_circle_matches_brute_force(self):
        rng = np.random.default_rng(2)
        pts = circle_points(rng.uniform(0, 2 * math.pi, 15))
        exact = covering_radius_1d(Sphere(1), pts)
        grid = circle_points(np.linspace(0, 2 * math.pi, 700_000))
        brute = build_index(pts).nearest_distances(grid).max()
        assert abs(exact - brute) <= 1e-5

    def test_polyline_matches_brute_force(self):
        domain = Polyline([[0, 0], [1, 0], [1, 2]])
        pts = sample(domain, 20, SeedSpec(5, 0)).points
        exact = covering_radius_1d(domain, pts)
        probe = build_probe_net(domain, 1e-4).points
        brute = build_index(pts).nearest_distances(probe).max()
        assert brute <= exact <= brute + 2e-4

    @pytest.mark.parametrize("vertices", [[[0, 0], [1, 0], [1, 2]],
                                          [[0, 0, 0], [1, 0, 0.5], [1, 2, 0], [-1, 1, 1]]],
                             ids=["2d", "3d"])
    def test_polyline_matches_the_dense_envelope(self, vertices):
        # reference: every crossing candidate against every sample in one dense
        # (candidates, N) matrix. The maximum sits at a crossing, where two
        # samples tie, so the k-d tree may take the other one: the values
        # agree to rounding at the coordinates' unit scale
        domain = Polyline(vertices)

        def dense(points):
            best = 0.0
            for a, b in zip(domain.vertices[:-1], domain.vertices[1:]):
                length = float(np.linalg.norm(b - a))
                u = (b - a) / length
                t_j = (points - a) @ u
                perp = points - a - np.outer(t_j, u)
                h2_j = np.einsum("ij,ij->i", perp, perp)
                c_j = t_j**2 + h2_j
                with np.errstate(divide="ignore", invalid="ignore"):
                    t = (c_j[None, :] - c_j[:, None]) / (2.0 * (t_j[None, :] - t_j[:, None]))
                t = np.append(t[np.isfinite(t) & (t > 0.0) & (t < length)], [0.0, length])
                d2 = (t[:, None] - t_j[None, :]) ** 2 + h2_j[None, :]
                best = max(best, float(np.sqrt(d2.min(axis=1)).max()))
            return best

        for n, seed in [(1, 0), (2, 1), (20, 2), (60, 3), (150, 4)]:
            pts = sample(domain, n, SeedSpec(seed, 0)).points
            assert covering_radius_1d(domain, pts) == pytest.approx(dense(pts), rel=0, abs=1e-12)

    def test_polyline_memory_is_quadratic(self):
        # the dense envelope held N^2 candidates against N samples: 216 MB at N = 300
        domain = Polyline([[0, 0], [1, 0], [1, 2]])
        pts = sample(domain, 300, SeedSpec(8, 0)).points
        tracemalloc.start()
        try:
            covering_radius_1d(domain, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    def test_empty_samples(self):
        with pytest.raises(ValueError):
            covering_radius_1d(IntervalUniform(), np.empty(0))

    def test_unsupported_domain(self):
        with pytest.raises(UnsupportedDomainError):
            covering_radius_1d(Cube(2), np.array([[0.5, 0.5]]))

    def test_off_interval_samples_raise(self):
        # the point -1 once gave 0.6 (its gap to 0.2), though no domain point is that far
        with pytest.raises(ValueError):
            covering_radius_1d(IntervalUniform(), [-1.0, 0.2, 0.9])
        assert covering_radius_1d(IntervalUniform(), [0.2, 0.9]) == pytest.approx(0.35)

    @pytest.mark.parametrize("domain,points", [
        (IntervalUniform(), [0.5, 1.0 + 1e-12]),
        (ArcsineInterval(), [-1.5, 0.0]),
        (Cantor(8), [0.0, 1.0]),
        (Sphere(1), circle_points([0.0, 2.0]) * (1.0 + 1e-6)),
        (Sphere(1), [[1.0, 0.0, 0.0]]),
    ], ids=["interval", "arcsine", "cantor", "off-circle", "circle-3d"])
    def test_off_domain_samples_raise(self, domain, points):
        with pytest.raises(ValueError):
            covering_radius_1d(domain, points)

    def test_sample_set_of_another_domain_raises(self):
        x = sample(Sphere(1), 10, SeedSpec(0, 0))
        with pytest.raises(ValueError):
            covering_radius_1d(IntervalUniform(), x)
        assert covering_radius_1d(Sphere(1), x) == covering_radius_1d(Sphere(1), x.points)

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_interval_matches_dense_grid(self, xs):
        exact = covering_radius_1d(IntervalUniform(), np.array(xs))
        grid = np.linspace(0.0, 1.0, 20_001)
        brute = np.abs(grid[:, None] - np.array(xs)[None, :]).min(axis=1).max()
        assert brute <= exact + 1e-12
        assert exact <= brute + 1.0 / 20_000

    def test_monotone_under_added_points(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            xs = rng.random(rng.integers(1, 20))
            extra = np.append(xs, rng.random())
            assert covering_radius_1d(IntervalUniform(), extra) <= covering_radius_1d(
                IntervalUniform(), xs
            ) + 1e-15

    @pytest.mark.parametrize("lam", [0.5, 3.0])
    def test_polyline_scaling_equivariance(self, lam):
        base = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 2.0]])
        domain = Polyline(base)
        scaled = Polyline(base * lam)
        pts = sample(domain, 15, SeedSpec(6, 0)).points
        assert covering_radius_1d(scaled, pts * lam) == pytest.approx(
            lam * covering_radius_1d(domain, pts), rel=1e-12
        )


def cantor_points(depth: int) -> np.ndarray:
    """All 2^depth points of the truncated Cantor set, sorted."""
    pts = np.array([0.0])
    for k in range(1, depth + 1):
        pts = np.concatenate([pts, pts + 2.0 * 3.0**-k])
    return np.sort(pts)


def nearest_gap_max(probes: np.ndarray, xs: np.ndarray) -> float:
    """max over probes of the distance to the nearest of the samples xs."""
    xs = np.sort(xs)
    pos = np.searchsorted(xs, probes)
    left = np.where(pos > 0, probes - xs[np.maximum(pos - 1, 0)], np.inf)
    right = np.where(pos < xs.size, xs[np.minimum(pos, xs.size - 1)] - probes, np.inf)
    return float(np.minimum(np.abs(left), np.abs(right)).max())


class TestCantorExact:
    """The exact Cantor path against brute force over every point of the set,
    against the descent over all gaps, and inside the probe-net sandwich."""

    @pytest.mark.parametrize("depth", [1, 3, 8, 12, 16, 20])
    def test_matches_brute_force(self, depth):
        domain, every = Cantor(depth), cantor_points(depth)
        for n in (1, 2, 3, 10, 100, 1000, 10**4):
            for t in range(2):
                xs = sample(domain, n, SeedSpec(depth, t)).points[:, 0]
                xs = np.concatenate([xs, xs[: n // 2]])  # duplicated samples
                rho = covering_radius_1d(domain, xs)
                assert abs(rho - nearest_gap_max(every, xs)) <= 1e-15, (n, t)

    def test_single_point_and_endpoints(self):
        top = 1.0 - 3.0**-8
        assert covering_radius_1d(Cantor(8), np.array([0.0])) == top
        assert covering_radius_1d(Cantor(8), np.array([0.0, top])) == nearest_gap_max(
            cantor_points(8), np.array([0.0, top]))

    @pytest.mark.parametrize("depth", [5, 20, 40, 60, 100])
    def test_pruned_equals_descent_over_all_gaps(self, depth):
        domain = Cantor(depth)
        for n in (2, 17, 100, 1000, 10**4, 10**5):
            for t in range(3):
                xs = np.sort(sample(domain, n, SeedSpec(77, t)).points[:, 0])
                gaps = _cantor_gap_values(xs[:-1], xs[1:], depth)
                full = max(xs[0], (1.0 - 3.0**-depth) - xs[-1], gaps.max())
                assert covering_radius_1d(domain, xs) == full, (n, t)

    def test_prune_reaches_past_the_first_gaps(self):
        # every point of Cantor(10) except inside 21 of the 32 level-6 holes'
        # cylinders (hole width h): 20 decoy gaps end 8/9 h from their holes
        # (value 8/9 h, bound 1.39 h), and the gap holding the maximum ends at
        # its cylinder's ends (value h - 3^-10, bound h), so the 16 gaps of
        # largest bound miss it and the second pass must find it
        depth, h, tiny = 10, 3.0**-6, 3.0**-10 / 2.0
        every = cantor_points(depth)
        keep = np.ones(every.size, dtype=bool)
        prefixes = cantor_points(5)
        for p in prefixes[:20]:
            keep &= ~((every > p + h / 9.0 - tiny) & (every < p + 2.0 * h + 8.0 * h / 9.0 - tiny))
        p = prefixes[-1]
        keep &= ~((every > p + tiny) & (every < p + 2.0 * h - tiny))
        xs = every[keep]
        gaps = _cantor_gap_values(xs[:-1], xs[1:], depth)
        rho = covering_radius_1d(Cantor(depth), xs)
        assert rho == gaps.max()
        assert abs(rho - (h - 3.0**-depth)) <= 1e-15
        assert abs(rho - nearest_gap_max(every, xs)) <= 1e-15

    def test_inside_the_net_sandwich(self):
        # the net's right cylinder endpoints lie 3^-D above the truncated set and
        # coordinates round at ulp(1), so L may pass rho by a few 1e-16
        domain = Cantor(40)
        for n in (10**2, 10**3, 10**4, 10**5):
            net = cantor_net(domain, probe_mesh_for(domain, n))
            for t in range(3):
                x = sample(domain, n, SeedSpec(19, t))
                rho = covering_radius_1d(domain, x)
                b = covering_radius_bounds(domain, x, net)
                assert b.lower - 1e-15 <= rho <= b.upper, (n, t)


@st.composite
def window_cases(draw):
    """A window and raw samples of [-1, 1] that stress the midpoint step:
    duplicates, 1-ulp neighbours, samples exactly at the window's ends, and
    (with outside) none in the window at all."""
    window = WindowSpec(draw(st.sampled_from([0.5, 1.0, 2.0, 3.0])),
                        draw(st.sampled_from(["right_edge", "interior"])))
    n = draw(st.integers(1, 100))
    w0, w1 = window.bounds(n)
    anchors = [-1.0, 0.0, 1.0, w0, w1]
    anchors += [float(np.nextafter(a, to)) for a in anchors for to in (-2.0, 2.0)]
    pool = st.floats(-1.0, 1.0) | st.sampled_from(anchors)
    xs = draw(st.lists(pool, min_size=1, max_size=40))
    for i, step in draw(st.lists(st.tuples(st.integers(0, len(xs) - 1),
                                           st.sampled_from([-1.0, 0.0, 1.0])), max_size=10)):
        xs.append(float(np.nextafter(xs[i], 2.0 * step)) if step else xs[i])
    xs = np.clip(xs, -1.0, 1.0)
    if draw(st.booleans()):
        xs = xs[(xs < w0) | (xs > w1)]
        xs = xs if xs.size else np.array([-1.0])
    return xs, window, n


class TestWindowedCoveringRadius:
    @settings(max_examples=500, deadline=None)
    @given(case=window_cases())
    @example(case=(np.array([0.25]), WindowSpec(1.0, "interior"), 1))
    @example(case=(np.array([-1.0, -1.0, 0.0, 1.0, 1.0]), WindowSpec(1.0, "right_edge"), 2))
    @example(case=(np.array([-1.0, 0.0, 0.5]), WindowSpec(2.0, "right_edge"), 10))  # none in window
    def test_equals_the_sorted_search(self, case):
        # each in-window midpoint's distance is the smaller of its two half-gaps:
        # the same subtractions the sorted search made
        xs, window, n = case
        got = covering_radius_window(ArcsineInterval(), xs, window, n)
        assert got == window_radius_searchsorted(np.sort(xs), *window.bounds(n))

    def test_two_point_window(self):
        u = 0.01  # window [1-u, 1] for N=10, a=2
        w = WindowSpec(2.0, "right_edge")
        got = covering_radius_window(ArcsineInterval(), np.array([1 - 2 * u, 1.0]), w, 10)
        assert got == pytest.approx(u, rel=1e-9)

    def test_off_domain_samples_raise(self):
        with pytest.raises(ValueError):
            covering_radius_window(ArcsineInterval(), np.array([0.98, 1.5]),
                                   WindowSpec(2.0, "right_edge"), 10)

    def test_two_column_samples_raise(self):
        # as covering_radius_1d: an (N, 2) array is not 2N samples
        x = np.array([[0.1, 0.9], [0.5, -0.3]])
        with pytest.raises(ValueError):
            covering_radius_window(ArcsineInterval(), x, WindowSpec(1.0, "interior"), 10)
        with pytest.raises(ValueError):
            covering_radius_1d(ArcsineInterval(), x)

    def test_window_with_interior_points(self):
        u = 0.01
        w = WindowSpec(2.0, "right_edge")
        got = covering_radius_window(
            ArcsineInterval(), np.array([1 - u, 1 - u / 2, 1.0]), w, 10
        )
        assert got == pytest.approx(u / 4, rel=1e-9)

    def test_no_point_in_window(self):
        u = 0.01
        w = WindowSpec(2.0, "right_edge")
        got = covering_radius_window(ArcsineInterval(), np.array([1 - 2 * u]), w, 10)
        assert got == pytest.approx(2 * u, rel=1e-9)

    def test_interior_window(self):
        w = WindowSpec(1.0, "interior")
        got = covering_radius_window(ArcsineInterval(), np.array([0.0]), w, 4)
        assert got == pytest.approx(0.75, rel=1e-12)  # window [-0.75, 0.75]

    def test_degenerate_window(self):
        with pytest.raises(ValueError):
            WindowSpec(1.0, "right_edge").bounds(0)
        # N = 1 keeps u = N^-a at 1, the widest non-degenerate window
        assert WindowSpec(1.0, "right_edge").bounds(1) == (0.0, 1.0)

    def test_window_spec_validation(self):
        with pytest.raises(ValueError):
            WindowSpec(-1.0, "right_edge")
        with pytest.raises(ValueError, match="window exponent"):
            WindowSpec(True)  # once ran as a = 1.0
        with pytest.raises(ValueError):
            WindowSpec(1.0, "left_edge")


class TestSandwichBounds:
    def test_interval_example(self):
        net = build_probe_net(IntervalUniform(), 1.0 / 8.0)
        b = covering_radius_bounds(IntervalUniform(), np.array([0.0, 1.0]), net)
        assert b.lower == pytest.approx(0.5)
        assert b.upper == pytest.approx(0.625)
        assert (b.lower + b.upper) / 2 == pytest.approx(0.5625)

    def test_net_covers_itself(self):
        net = build_probe_net(Cube(2), 0.05)
        b = covering_radius_bounds(Cube(2), net.points, net)
        assert b.lower == 0.0
        assert b.upper == net.certified_mesh

    def test_cube_contains_finer_grid_oracle(self):
        domain = Cube(2)
        pts = sample(domain, 200, SeedSpec(10, 0)).points
        coarse = build_probe_net(domain, 0.01)
        fine = build_probe_net(domain, 0.002)
        b = covering_radius_bounds(domain, pts, coarse)
        oracle = build_index(pts).nearest_distances(fine.points).max()
        assert b.lower <= oracle + 0.002
        assert oracle <= b.upper

    def test_domain_mismatch(self):
        net = build_probe_net(IntervalUniform(), 0.1)
        with pytest.raises(ValueError):
            covering_radius_bounds(ArcsineInterval(), np.array([0.0]), net)

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            CoveringRadiusInterval(lower=0.5, upper=0.4, probe_mesh=0.1)

    @pytest.mark.parametrize("mesh", [1e-2, 1e-3])
    def test_sandwich_soundness(self, mesh):
        # exact 1-D value must land inside [L, L + mesh]
        rng = np.random.default_rng(17)
        domains = [IntervalUniform(), Sphere(1), Polyline([[0, 0], [1, 0], [1, 2]])]
        nets = {d: build_probe_net(d, mesh) for d in domains}
        for k in range(60):
            domain = domains[k % 3]
            pts = sample(domain, int(rng.integers(2, 40)), SeedSpec(100, k)).points
            exact = covering_radius_1d(domain, pts)
            b = covering_radius_bounds(domain, pts, nets[domain])
            assert b.lower <= exact + 1e-12
            assert exact <= b.upper + 1e-12


_NETS: dict = {}


def _net(domain, mesh):
    key = (repr(domain), mesh)
    if key not in _NETS:
        _NETS[key] = probe_net(domain, mesh)
    return _NETS[key]


# nets deep enough that the cell walk has several levels and prunes; the 3-D
# sphere and ball are the coarsest with three levels (1.48M and 409k points)
DEEP_NETS = [(Cube(2), 0.002), (Cube(3), 0.01), (Sphere(2), 0.005), (Ball(2), 0.003),
             (Sphere(3), 0.031), (Ball(3), 0.032), (Cantor(20), 1e-5),
             (unit_box_polyhedron(), 0.015)]


def levels(net) -> int:
    """Levels of blocks the walk evaluates before the finest blocks' points."""
    return max(cells.depth for cells in net.cells) + 1


class TestPrunedMaximum:
    """covering_radius_bounds prunes the probe net to the cells that can hold the
    maximum; L must still be the maximum over the whole net, bit for bit."""

    @staticmethod
    def check(domain, net, n, seed, dup, probe_at):
        x = sample(domain, n, SeedSpec(seed, 0)).points.reshape(n, -1)
        x = np.concatenate([x, x[:dup]])  # duplicated sample points
        if probe_at is not None:  # a sample placed on a probe point
            x[-1] = net.points[probe_at % len(net.points)]
        full = float(build_index(x).nearest_distances(net.points).max())
        assert covering_radius_bounds(domain, x, net).lower == full

    @staticmethod
    def check_at(domain, net, x):
        """check() at given samples; returns the probe points holding the maximum."""
        d = build_index(x).nearest_distances(net.points)
        assert covering_radius_bounds(domain, x, net).lower == float(d.max())
        return net.points[d == d.max()]

    @pytest.mark.parametrize("domain, mesh", CERT_DOMAINS, ids=lambda v: repr(v)[:24])
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 400), seed=st.integers(0, 2**32), dup=st.integers(0, 50),
           probe_at=st.none() | st.integers(0, 10**6))
    @example(n=1, seed=0, dup=0, probe_at=None)
    @example(n=1, seed=0, dup=3, probe_at=0)
    def test_cert_domains(self, domain, mesh, n, seed, dup, probe_at):
        self.check(domain, _net(domain, mesh), n, seed, dup, probe_at)

    @pytest.mark.parametrize("domain, mesh", DEEP_NETS, ids=lambda v: repr(v)[:24])
    @settings(max_examples=10, deadline=None)
    @given(n=st.sampled_from([1, 10, 1000, 5000]), seed=st.integers(0, 2**32),
           dup=st.integers(0, 50), probe_at=st.none() | st.integers(0, 10**7))
    def test_deep_nets(self, domain, mesh, n, seed, dup, probe_at):
        net = _net(domain, mesh)
        assert levels(net) >= 3  # coarse-to-fine levels above the finest blocks' points
        self.check(domain, net, n, seed, dup, probe_at)

    @settings(max_examples=10, deadline=None)
    @given(n=st.sampled_from([1, 10, 1000]), seed=st.integers(0, 2**32),
           scale=st.sampled_from([0.0, 1e-3, 0.1, 0.5]))
    def test_maximum_on_the_ball_boundary(self, n, seed, scale):
        # samples near the centre: the farthest probe points are the boundary
        # sphere net's and the interior grid's, on |y| = 1
        domain = Ball(2)
        x = scale * sample(domain, n, SeedSpec(seed, 0)).points
        at = self.check_at(domain, _net(domain, 0.003), x)
        assert np.allclose(np.linalg.norm(at, axis=1), 1.0)

    @settings(max_examples=10, deadline=None)
    @given(n=st.sampled_from([1, 10, 1000]), seed=st.integers(0, 2**32),
           ax=st.integers(0, 2), side=st.sampled_from([-1.0, 1.0]))
    @example(n=10, seed=0, ax=0, side=1.0)
    def test_maximum_on_the_face_opposite_a_sphere_cap(self, n, seed, ax, side):
        # samples in the cap side * x[ax] > 0.9 (x0 > 0.9 among them; about 5%
        # of the sphere, so 1000 draws always hold one): the maximum lies on the
        # opposite face, and the deep levels keep blocks of few of the six face
        # copies, so most copies' runs of rows are empty, the cap's face before
        # or after the maximum's
        domain = Sphere(2)
        x = sample(domain, max(100 * n, 1000), SeedSpec(seed, 0)).points
        x = x[side * x[:, ax] > 0.9][:n]
        at = self.check_at(domain, _net(domain, 0.005), x)
        assert (side * at[:, ax] < -0.9).all()

    @settings(max_examples=10, deadline=None)
    @given(n=st.sampled_from([1, 10, 1000]), seed=st.integers(0, 2**32))
    def test_maximum_on_the_far_face_of_the_unit_box(self, n, seed):
        # samples on the face z = 0: the maximum lies on the face z = 1, held by
        # the face lattices, the vertices and the masked interior grid
        domain = unit_box_polyhedron()
        x = sample(domain, n, SeedSpec(seed, 0)).points * [1.0, 1.0, 0.0]
        at = self.check_at(domain, _net(domain, 0.015), x)
        assert (at[:, 2] == 1.0).all()

    @pytest.mark.parametrize("domain", [regular_tetrahedron(), equilateral_prism()],
                             ids=["tetrahedron", "prism"])
    @settings(max_examples=10, deadline=None)
    @given(n=st.sampled_from([1, 10, 1000]), seed=st.integers(0, 2**32),
           dup=st.integers(0, 50), probe_at=st.none() | st.integers(0, 10**6))
    def test_polyhedra_inside_their_bounding_box(self, domain, n, seed, dup, probe_at):
        # most of the bounding-box grid lies outside: its blocks are left out,
        # and the blocks across the boundary are masked point by point
        self.check(domain, _net(domain, 0.03), n, seed, dup, probe_at)


# the acceptance 07/08 nets at N = 1e5: sphere2 and ball2 at eta 0.05, cube2 at 0.025
LARGE_NETS = [(Sphere(2), probe_mesh_for(Sphere(2), 10**5, 0.05)),
              (Ball(2), probe_mesh_for(Ball(2), 10**5, 0.05)),
              (Cube(2), probe_mesh_for(Cube(2), 10**5, 0.025))]


# rows one walk queries on the LARGE_NETS at N = 1e5, SeedSpec(3, 0): in all,
# and in its last query (the probe points). The walk queried 72336/286
# (sphere2), 37300/39 (ball2) and 56987/175 (cube2); with every child and
# every point of the kept finest blocks queried it took 131878/11448,
# 58416/1564 and 85668/2052. The ceilings leave about 10% headroom.
LARGE_NET_ROWS = {"Sphere(d=2, kind='Sphere')": (80_000, 320),
                  "Ball(d=2, kind='Ball')": (41_000, 45),
                  "Cube(d=2, kind='Cube')": (63_000, 195)}


class TestLazyNet:
    """The sandwich never builds the whole probe net, and a trial makes one
    k-d tree query per level of blocks plus one over the kept blocks' points."""

    @pytest.mark.parametrize("domain, mesh", CERT_DOMAINS + LARGE_NETS,
                             ids=lambda v: repr(v)[:24])
    def test_points_never_materialised(self, domain, mesh, monkeypatch):
        def materialised(net):
            raise AssertionError("the whole probe net was built")

        monkeypatch.setattr(ProbeNet, "points", property(materialised))
        rows = []  # per k-d tree query, its rows: nearest and nearest_distances alike

        class CountedTree(cKDTree):
            def query(self, x, *args, **kwargs):
                rows.append(len(x))
                return super().query(x, *args, **kwargs)

        monkeypatch.setattr(nets, "cKDTree", CountedTree)
        net = probe_net(domain, mesh)
        large = (domain, mesh) in LARGE_NETS
        x = sample(domain, 10**5 if large else 200, SeedSpec(3, 0)).points
        covering_radius_bounds(domain, x, net)
        assert 0 < len(rows) <= levels(net) + 1
        if large:
            total, last = LARGE_NET_ROWS[repr(domain)]
            assert sum(rows) <= total and rows[-1] <= last


class TestSphereHullOracle:
    """On S^2 the chord covering radius is sqrt(2 - 2 min facet offset) over the
    facets of the samples' convex hull, when the origin is strictly inside it."""

    @pytest.mark.parametrize("n", [100, 1000])
    def test_sandwich_contains_hull_radius(self, n):
        domain = Sphere(2)
        net = build_probe_net(domain, probe_mesh_for(domain, n, 0.05))
        for t in range(20):
            x = sample(domain, n, SeedSpec(2024, t)).points
            offsets = ConvexHull(x).equations[:, -1]
            assert (offsets < 0.0).all()  # origin strictly inside the hull
            rho = math.sqrt(2.0 - 2.0 * float((-offsets).min()))
            b = covering_radius_bounds(domain, x, net)
            assert b.lower <= rho + 1e-12
            assert rho <= b.upper + 1e-12


class TestBallMeasure:
    def test_interval_clip(self):
        assert ball_measure(IntervalUniform(), [0.0], 0.3) == (pytest.approx(0.3), 0.0)
        assert ball_measure(IntervalUniform(), [0.5], 0.2) == (pytest.approx(0.4), 0.0)

    def test_arcsine_edge(self):
        u = 0.05
        est, half = ball_measure(ArcsineInterval(), [1.0], u)
        assert half == 0.0
        assert est == pytest.approx(math.acos(1.0 - u) / math.pi, rel=1e-12)

    def test_arcsine_matches_numeric_integration(self):
        from scipy.integrate import quad

        center, r = 0.3, 0.25
        est, _ = ball_measure(ArcsineInterval(), [center], r)
        ref, _ = quad(lambda x: 1.0 / (math.pi * math.sqrt(1 - x * x)),
                      center - r, center + r)
        assert est == pytest.approx(ref, rel=1e-9)

    def test_circle_arc(self):
        r = 2.0 * math.sin(math.pi / 8.0)
        est, half = ball_measure(Sphere(1), [1.0, 0.0], r)
        assert half == 0.0
        assert est == pytest.approx(0.25, rel=1e-12)

    def test_cube_corner_quarter_disk(self):
        est, half = ball_measure(Cube(2), [0.0, 0.0], 0.2, 10**6, SeedSpec(1, 0))
        assert abs(est - math.pi * 0.04 / 4.0) <= half

    def test_whole_domain_measure_one(self):
        for domain, center in [
            (IntervalUniform(), [0.5]),
            (ArcsineInterval(), [0.0]),
            (Sphere(1), [1.0, 0.0]),
        ]:
            est, _ = ball_measure(domain, center, domain.diameter + 1.0)
            assert est == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ball_measure(IntervalUniform(), [0.0], 0.0)
        with pytest.raises(ValueError):
            ball_measure(Cube(2), [0.0, 0.0], 0.1, mc_budget=10)


EXACT_DOMAINS = [IntervalUniform(), ArcsineInterval(), Sphere(1), Cantor(40),
                 Polyline([[0.0, 0.0], [1.0, 0.0], [1.0, 2.0]])]


class TestExactBounds:
    """With no probe net, covering_radius_bounds is exact."""

    @pytest.mark.parametrize("domain", EXACT_DOMAINS, ids=repr)
    def test_bounds_are_the_exact_radius(self, domain):
        for t in range(3):
            sset = sample(domain, 150, SeedSpec(21, t))
            rho = covering_radius_1d(domain, sset)
            b = covering_radius_bounds(domain, sset, None)
            assert (b.lower, b.upper, b.probe_mesh) == (rho, rho, 0.0)

    @pytest.mark.parametrize("domain", [Sphere(2), Cube(2)], ids=repr)
    def test_no_exact_path_off_the_1d_domains(self, domain):
        sset = sample(domain, 50, SeedSpec(21, 0))
        with pytest.raises(UnsupportedDomainError):
            covering_radius_bounds(domain, sset, None)

    def test_samples_of_another_domain_are_refused(self):
        sset = sample(Cantor(20), 50, SeedSpec(22, 0))
        with pytest.raises(ValueError, match="samples drawn on"):
            covering_radius_bounds(Cantor(40), sset, None)


class TestProbeMeshScale:
    def test_interval_scale(self):
        n = 1000
        expected = (1.0 / 2.0 * math.log(n) / n) ** 1.0
        assert rho_scale(IntervalUniform(), n) == pytest.approx(expected, rel=1e-12)

    def test_eta_factor(self):
        n = 1000
        assert probe_mesh_for(Cube(2), n, 0.05) == pytest.approx(
            0.05 * rho_scale(Cube(2), n), rel=1e-12
        )
