import hashlib
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from covrad.sampler import SeedSpec, _cantor_points, sample
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

ALL_DOMAINS = [
    IntervalUniform(),
    ArcsineInterval(),
    Cube(2),
    Cube(3),
    Sphere(1),
    Sphere(2),
    Ball(2),
    Ball(3),
    Cantor(20),
    Polyline([[0, 0], [1, 0], [1, 2]]),
    unit_box_polyhedron(),
]


class TestSeedSpec:
    def test_bounds(self):
        SeedSpec(0, 0)
        SeedSpec(2**64 - 1, 2**64 - 1)
        with pytest.raises(ValueError):
            SeedSpec(-1, 0)
        with pytest.raises(ValueError):
            SeedSpec(0, 2**64)

    def test_integers_only(self):
        # 1.5 once ran seed 1's stream while the sidecar recorded 1.5
        with pytest.raises(ValueError):
            SeedSpec(1.5, 0)
        with pytest.raises(ValueError):
            SeedSpec(0, 2.0)
        # True and False once ran stream (1, 0)
        with pytest.raises(ValueError):
            SeedSpec(True, False)
        with pytest.raises(ValueError):
            SeedSpec(0, True)
        SeedSpec(np.uint64(2**64 - 1), np.int64(3))


class TestDeterminism:
    @pytest.mark.parametrize("domain", ALL_DOMAINS, ids=lambda d: repr(d))
    def test_bit_identical(self, domain):
        a = sample(domain, 500, SeedSpec(42, 3)).points
        b = sample(domain, 500, SeedSpec(42, 3)).points
        assert a.tobytes() == b.tobytes()

    # sha256 of sample(domain, n, SeedSpec(2024, stream)).points.tobytes(), recorded
    # with the Philox generator of numpy 2.4; a sampler change that moves any
    # stream fails here before it reaches a study's numbers. The Cantor streams
    # take one bit of a raw Philox word per digit and no BLAS call, so their
    # digests depend on neither the host's byte order nor its BLAS
    STREAM_DIGESTS = {
        "interval": (IntervalUniform(), 1000, 5,
                     "e87c64717eca9b40185b9135cc36e11ca02d1565f7e5e53cb09fca3818414177"),
        "arcsine": (ArcsineInterval(), 1000, 5,
                    "33724b1487520644e5bc60d55a1493b5827fce285bd3d0d951c7d7339e0f58e8"),
        "cube2": (Cube(2), 1000, 5,
                  "ee56e5b2a8e6b3d4f26a546a20d126b42258aa8ea26cf53df999495a9f0f0b1f"),
        "cube3": (Cube(3), 1000, 5,
                  "7bfcd2e70dab1dd7beb112097ac1e1cc5be01f9b732997f05addfd71d05825d5"),
        "circle": (Sphere(1), 1000, 5,
                   "5ded91fa56a713ebf06de30d49e31d28e9d9591ba8c2ab4ec04993e3f5f1a997"),
        "sphere2": (Sphere(2), 1000, 5,
                    "c88f76901ceed2df6617e4d6e90b532a5978d0a3c4be3485dc0ffb9936207e36"),
        # 4 and 8 columns: NumPy sums a row of 8 or more contiguous squares pairwise
        "sphere3": (Sphere(3), 1000, 5,
                    "d96e7813637e774d4260576de97f870309046350917ef2907a856ffcdc458260"),
        "sphere7": (Sphere(7), 1000, 5,
                    "8f4f66250457adcdfd430b9524548e9e99e7bdeaa57e80b503a8c6eebf75af29"),
        "ball2": (Ball(2), 1000, 5,
                  "49bc25ff9765c21c6b322f9c20003502a8ea5f28329fb703fa83edb3c091e102"),
        "ball3": (Ball(3), 1000, 5,
                  "c445edc7eaa8059d12caca4833dfdb64480dfabffc9b26aefd49c00db58c4cdc"),
        "polyline": (Polyline([[0, 0], [1, 0], [1, 2]]), 1000, 5,
                     "fa35dca42485b5ba6488ad24271efbc11fe22d825df6aee0e285766e9e798536"),
        "unit_box": (unit_box_polyhedron(), 1000, 5,
                     "8e6cef110b45179c90565dbc4246ce7e5cf7ac8976222fda91e3ccb8df3408d1"),
        "cantor20": (Cantor(20), 1000, 5,
                     "aa54096b697dae53ba763bb5ccdc6ef5b970f2ebf9a99db937946c16b65c4f76"),
        "cantor40": (Cantor(40), 1000, 5,
                     "97f53eceff6dd4b4669b40f0a695b5bd857dcb76aa5f0ee5a6d1a9d7e9e5cf97"),
        "cantor40_1e5": (Cantor(40), 10**5, 0,
                         "175d7167b352ec038db6568153fbfa43c55263dce2d3d232076b2b2ac4ee9796"),
    }

    @pytest.mark.parametrize("case", sorted(STREAM_DIGESTS))
    def test_stream_digest(self, case):
        domain, n, stream, want = self.STREAM_DIGESTS[case]
        pts = sample(domain, n, SeedSpec(2024, stream)).points
        assert hashlib.sha256(pts.tobytes()).hexdigest() == want

    def test_streams_differ(self):
        a = sample(IntervalUniform(), 100, SeedSpec(42, 0)).points
        b = sample(IntervalUniform(), 100, SeedSpec(42, 1)).points
        assert not np.array_equal(a, b)

    def test_stream_trial_recovery(self):
        # trial t of a study is stream SeedSpec(7, t), whatever was drawn before it
        full = [sample(Cube(2), 50, SeedSpec(7, t)) for t in range(10)]
        alone = sample(Cube(2), 50, SeedSpec(7, 5))
        assert np.array_equal(full[5].points, alone.points)

    def test_cantor_stream_trial_recovery(self):
        # the same for a Cantor stream's raw words (two per point at depth 100);
        # rows are drawn in order in chunks, so a shorter draw is a prefix
        full = [sample(Cantor(100), 9000, SeedSpec(7, t)) for t in range(3)]
        alone = sample(Cantor(100), 8500, SeedSpec(7, 2))
        assert np.array_equal(full[2].points[:8500], alone.points)

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            sample(IntervalUniform(), 0, SeedSpec(0, 0))

    @pytest.mark.parametrize("n", [True, 2.5, "3"], ids=["bool", "float", "string"])
    def test_counts_go_through_is_count(self, n):
        # True raised NumPy's TypeError, and so did 2.5 and "3"
        with pytest.raises(ValueError, match="positive integer count of points"):
            sample(IntervalUniform(), n, SeedSpec(0, 0))


class TestMembership:
    def test_interval(self):
        pts = sample(IntervalUniform(), 1000, SeedSpec(1, 0)).points
        assert pts.shape == (1000, 1)
        assert np.all((pts >= 0.0) & (pts <= 1.0))

    def test_arcsine(self):
        pts = sample(ArcsineInterval(), 1000, SeedSpec(1, 0)).points
        assert np.all((pts >= -1.0) & (pts <= 1.0))

    def test_sphere_norms(self):
        pts = sample(Sphere(2), 10_000, SeedSpec(9, 0)).points
        norms = np.linalg.norm(pts, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12

    def test_ball(self):
        pts = sample(Ball(3), 1000, SeedSpec(1, 0)).points
        assert np.all(np.linalg.norm(pts, axis=1) <= 1.0 + 1e-12)

    def test_cube(self):
        pts = sample(Cube(3), 1000, SeedSpec(1, 0)).points
        assert np.all((pts >= 0.0) & (pts <= 1.0))

    def test_polyline_on_segments(self):
        domain = Polyline([[0, 0], [1, 0], [1, 2]])
        pts = sample(domain, 1000, SeedSpec(1, 0)).points
        on_first = (np.abs(pts[:, 1]) <= 1e-12) & (pts[:, 0] >= -1e-12) & (pts[:, 0] <= 1 + 1e-12)
        on_second = (np.abs(pts[:, 0] - 1.0) <= 1e-12) & (pts[:, 1] >= -1e-12) & (pts[:, 1] <= 2 + 1e-12)
        assert np.all(on_first | on_second)

    def test_polyhedron_inside(self):
        box = unit_box_polyhedron()
        pts = sample(box, 1000, SeedSpec(1, 0)).points
        assert np.all(box.contains_many(pts, tol=1e-9))

    def test_cantor_digits(self):
        domain = Cantor(20)
        pts = sample(domain, 100, SeedSpec(1, 0)).points.ravel()
        scale = 3**domain.depth
        for x in pts:
            # x * 3^depth is an integer whose base-3 digits are all 0 or 2
            k = round(x * scale)
            assert abs(x * scale - k) < 1e-3
            while k:
                k, digit = divmod(k, 3)
                assert digit in (0, 2)


def cantor_exact(words, depth: int) -> Fraction:
    """M / 3^D with Python integers: digit k is 2 where bit 63 - (k-1) % 64 of
    word (k-1) // 64 is set, else 0."""
    m = sum(2 * 3 ** (depth - k) for k in range(1, depth + 1)
            if int(words[(k - 1) // 64]) >> (63 - (k - 1) % 64) & 1)
    return Fraction(m, 3**depth)


class TestCantorExactness:
    @pytest.mark.parametrize("depth", [1, 3, 8, 20, 40, 63, 64, 65, 100])
    def test_within_two_ulp(self, depth):
        n, seed = 1000, SeedSpec(11, depth)
        x = sample(Cantor(depth), n, seed).points[:, 0]
        words = seed.generator().bit_generator.random_raw((n, -(-depth // 64)))
        for xi, w in zip(x.tolist(), words):
            assert 0.0 <= xi <= 1.0
            assert abs(Fraction(xi) - cantor_exact(w, depth)) <= 2 * Fraction(math.ulp(xi))

    @pytest.mark.parametrize("depth", [40, 64, 100])
    @pytest.mark.parametrize("zeros", [8, 16, 32, 40])
    def test_leading_zero_digits(self, depth, zeros):
        # random draws seldom start with many 0 digits, where the divisions add up
        words = SeedSpec(12, depth).generator().bit_generator.random_raw((300, -(-depth // 64)))
        for k in range(zeros):
            words[:, k // 64] &= ~np.uint64(1 << (63 - k % 64))
        rng = SimpleNamespace(bit_generator=SimpleNamespace(random_raw=lambda shape: words))
        x = _cantor_points(rng, len(words), Cantor(depth))[:, 0]
        for xi, w in zip(x.tolist(), words):
            err = abs(Fraction(xi) - cantor_exact(w, depth))
            if depth <= 64 or zeros < 32:
                assert err <= 2 * Fraction(math.ulp(xi))
            else:
                assert err <= Fraction(1, 2**100)


class TestDistributions:
    def test_cube_coordinate_means(self):
        pts = sample(Cube(2), 100_000, SeedSpec(7, 0)).points
        tol = 3.0 * (1.0 / math.sqrt(12.0)) / math.sqrt(100_000)
        assert np.all(np.abs(pts.mean(axis=0) - 0.5) <= tol)

    def test_arcsine_ks(self):
        pts = sample(ArcsineInterval(), 100_000, SeedSpec(7, 0)).points.ravel()
        cdf = lambda x: 1.0 - np.arccos(np.clip(x, -1, 1)) / math.pi
        d, _ = stats.kstest(pts, cdf)
        assert d <= 1.628 / math.sqrt(100_000)

    def test_sphere_coordinate_means(self):
        pts = sample(Sphere(2), 10_000, SeedSpec(9, 0)).points
        tol = 3.0 / math.sqrt(3 * 10_000)
        assert np.all(np.abs(pts.mean(axis=0)) <= tol)

    @pytest.mark.parametrize("d", [2, 3])
    def test_ball_radial_law(self, d):
        n = 50_000
        pts = sample(Ball(d), n, SeedSpec(5, 0)).points
        radii = np.linalg.norm(pts, axis=1)
        for r in (0.3, 0.7):
            p = r**d
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(float((radii <= r).mean()) - p) <= 3 * sigma + 1e-12

    def test_arcsine_boundary_mass(self):
        # mass of [1 - 1/N, 1] matches the analytic arccos(1 - 1/N) / pi
        n = 10_000
        pts = sample(ArcsineInterval(), 200_000, SeedSpec(21, 0)).points.ravel()
        u = 1.0 / n
        p = math.acos(1.0 - u) / math.pi
        emp = float((pts >= 1.0 - u).mean())
        sigma = math.sqrt(p * (1 - p) / pts.size)
        assert abs(emp - p) <= 3 * sigma


def _chi_square_ok(counts, probs):
    counts = np.asarray(counts, dtype=float)
    expected = np.asarray(probs, dtype=float) * counts.sum()
    _, pvalue = stats.chisquare(counts, expected)
    return pvalue > 1e-3


class TestPartitionChiSquare:
    N = 100_000

    def test_interval_segments(self):
        pts = sample(IntervalUniform(), self.N, SeedSpec(31, 0)).points.ravel()
        counts = np.histogram(pts, bins=10, range=(0, 1))[0]
        assert _chi_square_ok(counts, [0.1] * 10)

    def test_cube2_cells(self):
        pts = sample(Cube(2), self.N, SeedSpec(31, 0)).points
        idx = np.floor(pts * 4).clip(0, 3).astype(int)
        counts = np.bincount(idx[:, 0] * 4 + idx[:, 1], minlength=16)
        assert _chi_square_ok(counts, [1 / 16] * 16)

    def test_sphere2_orthants(self):
        pts = sample(Sphere(2), self.N, SeedSpec(31, 0)).points
        idx = (pts[:, 0] > 0) * 4 + (pts[:, 1] > 0) * 2 + (pts[:, 2] > 0)
        counts = np.bincount(idx, minlength=8)
        assert _chi_square_ok(counts, [1 / 8] * 8)

    def test_ball2_shell_quadrants(self):
        pts = sample(Ball(2), self.N, SeedSpec(31, 0)).points
        shell = np.linalg.norm(pts, axis=1) > math.sqrt(0.5)  # equal-area split
        quad = (pts[:, 0] > 0) * 2 + (pts[:, 1] > 0)
        counts = np.bincount(shell * 4 + quad, minlength=8)
        assert _chi_square_ok(counts, [1 / 8] * 8)

    def test_arcsine_quantile_cells(self):
        pts = sample(ArcsineInterval(), self.N, SeedSpec(31, 0)).points.ravel()
        edges = np.cos(math.pi * np.linspace(1.0, 0.0, 9))  # equal-measure cells
        counts = np.histogram(pts, bins=edges)[0]
        assert _chi_square_ok(counts, [1 / 8] * 8)

    def test_polyline_subsegments(self):
        domain = Polyline([[0, 0], [1, 0], [1, 2]])
        pts = sample(domain, self.N, SeedSpec(31, 0)).points
        # arclength coordinate: t = x on the first edge, 1 + y on the second
        on_first = np.abs(pts[:, 1]) <= 1e-12
        t = np.where(on_first, pts[:, 0], 1.0 + pts[:, 1])
        counts = np.histogram(t, bins=12, range=(0, 3))[0]
        assert _chi_square_ok(counts, [1 / 12] * 12)

    def test_polyhedron_tet_counts(self):
        box = unit_box_polyhedron()
        pts = sample(box, self.N, SeedSpec(31, 0)).points
        # assign each point to the first containing tetrahedron
        remaining = np.ones(len(pts), dtype=bool)
        counts = []
        for tet in box.tetrahedra:
            a, b, c, d = (box.vertices[i] for i in tet)
            m = np.column_stack([b - a, c - a, d - a])
            lam = (pts - a) @ np.linalg.inv(m).T
            inside = np.all(lam >= -1e-12, axis=1) & (lam.sum(axis=1) <= 1 + 1e-12)
            take = inside & remaining
            counts.append(int(take.sum()))
            remaining &= ~take
        assert remaining.sum() == 0
        assert _chi_square_ok(counts, box.tet_volumes / box.volume)

    def test_cantor_cylinders(self):
        pts = sample(Cantor(20), self.N, SeedSpec(31, 0)).points.ravel()
        # a cylinder's largest point sits 27 * 3^-20 = 3^-17 (7.7e-9) below the next
        # index, above the 1e-9 slack: a point is misfiled only from depth 22 on
        digits = np.floor(pts * 27.0 + 1e-9).astype(int)  # depth-3 cylinder index
        counts = np.bincount(digits, minlength=27)
        cylinders = [i for i in range(27) if counts[i] > 0]
        assert len(cylinders) == 8
        assert _chi_square_ok(counts[cylinders], [1 / 8] * 8)

