import math

import numpy as np
import pytest

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

CERT_DOMAINS = [
    (IntervalUniform(), 0.02),
    (ArcsineInterval(), 0.02),
    (Cube(2), 0.05),
    (Cube(3), 0.1),
    (Sphere(1), 0.05),
    (Sphere(2), 0.05),
    (Ball(2), 0.05),
    (Ball(3), 0.1),
    (Cantor(20), 0.01),
    (Polyline([[0, 0], [1, 0], [1, 2]]), 0.02),
    (unit_box_polyhedron(), 0.1),
]


def spot_check_mesh(net: ProbeNet, n_samples: int = 10_000, master_seed: int = 987) -> float:
    """Max distance from fresh measure samples to the net; must be <= certified mesh."""
    sset = sample(net.domain, n_samples, SeedSpec(master_seed, 0))
    return float(build_index(net.points).nearest_distances(sset.points).max())


class TestBuildProbeNet:
    def test_interval_example(self):
        net = build_probe_net(IntervalUniform(), 1.0 / 8.0)
        assert net.certified_mesh == pytest.approx(1.0 / 8.0)
        assert sorted(net.points.ravel().tolist()) == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_circle_size_bound(self):
        net = build_probe_net(Sphere(1), 0.2)
        assert len(net.points) <= math.ceil(2.0 * math.pi / 0.2) + 4 + 40  # face-grid slack
        assert spot_check_mesh(net) <= net.certified_mesh

    def test_cube2_grid_step(self):
        net = build_probe_net(Cube(2), 0.1)
        xs = np.unique(net.points[:, 0])
        step = float(np.diff(xs).max())
        assert step <= 0.1 * math.sqrt(2.0) + 1e-12

    @pytest.mark.parametrize("domain,mesh", CERT_DOMAINS, ids=lambda v: repr(v))
    def test_certified_mesh_spot_check(self, domain, mesh):
        net = build_probe_net(domain, mesh)
        assert net.certified_mesh <= mesh
        assert spot_check_mesh(net, n_samples=10_000) <= net.certified_mesh

    def test_cantor_mesh_snaps_to_power_of_three(self):
        net = build_probe_net(Cantor(20), 0.01)
        k = round(-math.log(net.certified_mesh) / math.log(3.0))
        assert net.certified_mesh == pytest.approx(3.0**-k)

    def test_invalid_mesh(self):
        with pytest.raises(ValueError):
            build_probe_net(IntervalUniform(), 0.0)
        with pytest.raises(ValueError):
            build_probe_net(IntervalUniform(), 2.0)

    def test_probe_net_validation(self):
        with pytest.raises(ValueError):
            ProbeNet(IntervalUniform(), np.zeros((1, 1)), 0.0)


class TestSpatialIndex:
    def test_basic(self):
        idx = build_index(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert idx.nearest_distances([[0.4, 0.0]]).tolist() == [pytest.approx(0.4)]

    def test_query_at_stored_point(self):
        idx = build_index(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert idx.nearest_distances([[1.0, 0.0]]).tolist() == [0.0]

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(8)
        pts = rng.random((1000, 3))
        queries = rng.random((1000, 3))
        idx = build_index(pts)
        got = idx.nearest_distances(queries)
        brute = np.sqrt(
            ((queries[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1)
        ).min(axis=1)
        assert np.array_equal(got, brute) or np.allclose(got, brute, rtol=0, atol=0)

    def test_empty_points(self):
        with pytest.raises(ValueError):
            build_index(np.empty((0, 2)))
