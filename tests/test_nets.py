import dataclasses
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from oracles import cantor_net, exact_path_net
from test_spaces import equilateral_prism, regular_tetrahedron

from covrad.cli import BUILTIN_DOMAINS
from covrad.covering import has_exact_path, probe_mesh_for
from covrad.errors import UnsupportedDomainError
from covrad.nets import (
    ProbeNet,
    _cube_axes,
    _cut,
    _level,
    axis_points,
    build_index,
    build_probe_net,
)
from covrad.sampler import SeedSpec, sample
from covrad.spaces import (
    ArcsineInterval,
    Ball,
    Cantor,
    Cube,
    IntervalUniform,
    Polyhedron3,
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
    (Sphere(3), 0.2),
    (Ball(2), 0.05),
    (Ball(3), 0.1),
    (Cantor(20), 0.01),
    (Polyline([[0, 0], [1, 0], [1, 2]]), 0.02),
    (unit_box_polyhedron(), 0.1),
]

# sha256 of points.tobytes(), point count and certified mesh per CERT_DOMAINS
# case (the interval, arcsine, circle and Cantor nets are the oracle's,
# exact_path_net): a refactor of the net builders must keep every probe
# point bit for bit and in order.
NET_DIGESTS = {
    "IntervalUniform(kind='IntervalUniform')":
        ("cc68460f765f617551f639c2f3cfe98177ccc952f2f0454d01f8cff4296edd07", 26, 0.02),
    "ArcsineInterval(kind='ArcsineInterval')":
        ("ecab98abb371112345bcb9251fec9cfbb13fadc5879d9fb781fab927bcc87eb6", 51, 0.02),
    "Cube(d=2, kind='Cube')":
        ("5c55124bac7b66d87abeb91d93a9830493c595ba076d9f22fd81f5f207ff0f29", 256, 0.05),
    "Cube(d=3, kind='Cube')":
        ("1fbb5d8e57313ab976276cce1e451b41722bc6365ccb6b503da38467c7ebf3d0", 1000, 0.1),
    "Sphere(d=1, kind='Sphere')":
        ("481f4bb6a2b24516ac5bf10bd8817b63ce77aea0dfd7fabf6f30499a3cd66706", 84, 0.05),
    "Sphere(d=2, kind='Sphere')":
        ("beac798daf2e6a4e48a1dff3f2921c24c75ae87c236a6a9272e77545ac020a1f", 5400, 0.05),
    "Sphere(d=3, kind='Sphere')":
        ("832a2f498db029f0a7017fee3c9da794ed13b033d215714599ddef00bd8af507", 8000, 0.2),
    "Ball(d=2, kind='Ball')":
        ("4cc2db1eb3ca931b87297ecd43cbee3c90cb63e438893cc74671008eabf13939", 1453, 0.05),
    "Ball(d=3, kind='Ball')":
        ("21c301234633e743a30334b020808fb313a68ed2a7648c67c410e01b58659f58", 27337, 0.1),
    "Cantor(depth=20, kind='Cantor')":
        ("f49d1e46dca04ffcbc5a4d4ba2ac8979c4ab747ec76dda3c32eebc3f2da32d8c", 64,
         0.00411522633744856),
    "Polyline([[0.0, 0.0], [1.0, 0.0], [1.0, 2.0]])":
        ("431417ad47a6a2fbe8d25eba84453d57a989cb772274eee345672b6e08246246", 77, 0.02),
    "Polyhedron3(<8 vertices, 6 tets>)":
        ("5c2d2d98c3c4fc9dd1e2c17f214cdb3c41037ac1fab586bd4385204fe73c06d1", 12439, 0.1),
}

# the polyhedra leave most of their bounding-box grid out; Ball(1) is its
# interior grid alone
BLOCK_DOMAINS = CERT_DOMAINS + [(regular_tetrahedron(), 0.1), (equilateral_prism(), 0.05),
                                (Ball(1), 0.05)]

# every built-in domain by its CLI name, and a few more
NAMED_DOMAINS = {**BUILTIN_DOMAINS, "ball1": Ball(1), "cube1": Cube(1), "sphere3": Sphere(3),
                 "polyline": Polyline([[0.0, 0.0], [1.0, 0.0], [1.0, 2.0]])}


def probe_net(domain, mesh):
    """build_probe_net's net, or on the exact-path domains (which no study nets)
    the oracle's."""
    if has_exact_path(domain):
        return exact_path_net(domain, mesh)
    return build_probe_net(domain, mesh)


def cut(net, depth):
    """The net with every piece cut at the given depth by the helper its build
    uses, so a test can walk more levels than the net's own cut."""
    out = dataclasses.replace(net)
    object.__setattr__(out, "depth", depth)
    object.__setattr__(out, "tops", tuple(_cut(piece, side, depth)
                                          for piece, side in zip(net.pieces, net.sides)))
    return out


def own_and_deeper(net):
    """The net as built, and cut three levels deeper (its own cut is often its finest)."""
    return net, cut(net, net.depth + 3)


def refine(piece, side, top, depth):
    """A piece's levels of blocks, top first, each block split into all its
    children (in its copy) down to the finest side, with no pruning."""
    levels = [top]
    for j in range(depth - 1, -1, -1):
        size = side << j
        corners = np.array(list(itertools.product((0, 1), repeat=len(size))))
        kids = levels[-1].first[:, None, :] + corners * size
        copy = np.repeat(levels[-1].copy, len(corners))
        levels.append(_level(piece, kids.reshape(-1, len(size)), copy, size))
    return levels


def grid_points(piece, side, finest):
    """Every grid point of a piece's finest blocks: its grid index, copy, image
    and keep-mask."""
    offsets = np.array(list(itertools.product(*(range(s) for s in side))))
    idx = (finest.first[:, None, :] + offsets).reshape(-1, len(side))
    copy = np.repeat(finest.copy, len(offsets))
    inside = (idx < piece.shape).all(axis=1)
    idx, copy = idx[inside], copy[inside]
    x = piece.coords(idx)
    kept = np.ones(len(x), dtype=bool) if piece.keep is None else piece.keep(x)
    return idx, copy, piece.fmap(x, copy), kept


def spot_check_mesh(net: ProbeNet, n_samples: int = 10_000, master_seed: int = 987) -> float:
    """Max distance from fresh measure samples to the net; must be <= certified mesh."""
    sset = sample(net.domain, n_samples, SeedSpec(master_seed, 0))
    return float(build_index(net.points).nearest_distances(sset.points).max())


class TestBuildProbeNet:
    def test_interval_example(self):
        net = probe_net(IntervalUniform(), 1.0 / 8.0)
        assert net.certified_mesh == pytest.approx(1.0 / 8.0)
        assert sorted(net.points.ravel().tolist()) == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_circle_size_bound(self):
        net = probe_net(Sphere(1), 0.2)
        assert len(net.points) <= math.ceil(2.0 * math.pi / 0.2) + 4 + 40  # face-grid slack
        assert spot_check_mesh(net) <= net.certified_mesh

    def test_cube2_grid_step(self):
        net = build_probe_net(Cube(2), 0.1)
        xs = np.unique(net.points[:, 0])
        step = float(np.diff(xs).max())
        assert step <= 0.1 * math.sqrt(2.0) + 1e-12

    @pytest.mark.parametrize("domain,mesh", BLOCK_DOMAINS, ids=lambda v: repr(v))
    def test_certified_mesh_spot_check(self, domain, mesh):
        net = probe_net(domain, mesh)
        assert net.certified_mesh <= mesh
        # a net certifies the mesh asked, but the Cantor oracle's snaps to 3^-k
        assert isinstance(domain, Cantor) or net.certified_mesh == mesh
        assert spot_check_mesh(net, n_samples=10_000) <= net.certified_mesh

    @pytest.mark.parametrize("domain,mesh", CERT_DOMAINS, ids=lambda v: repr(v))
    def test_points_are_golden(self, domain, mesh):
        net = probe_net(domain, mesh)
        digest = hashlib.sha256(net.points.tobytes()).hexdigest()
        assert (digest, len(net.points), net.certified_mesh) == NET_DIGESTS[repr(domain)]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_one_sphere_piece_with_a_copy_per_face(self, d):
        # the 2(d+1) cube faces are copies of one grid, and the ball adds the
        # boundary sphere's piece to its interior grid for d >= 2 (the
        # circle's net is the oracle's, from the same piece)
        (sphere,) = probe_net(Sphere(d), 0.1).pieces
        assert sphere.copies == 2 * (d + 1)
        ball = build_probe_net(Ball(d), 0.1).pieces
        assert len(ball) == (2 if d >= 2 else 1) and ball[0].copies == 1
        assert d == 1 or ball[1].copies == 2 * d

    @pytest.mark.parametrize("d,mesh", [(1, 0.05), (2, 0.05), (3, 0.1)])
    def test_ball_net_is_its_proofs_union(self, d, mesh):
        # the interior grid certifying 3*mesh/4, kept where |x| <= 1, then the
        # boundary sphere's net at mesh/4 (Ball(1): the grid alone), bit for bit
        axes = _cube_axes(d, 0.75 * mesh, -1.0, 1.0)
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        parts = [grid[np.linalg.norm(grid, axis=1) <= 1.0]]
        if d >= 2:
            parts.append(probe_net(Sphere(d - 1), mesh / 4.0).points)
        points = build_probe_net(Ball(d), mesh).points
        assert points.tobytes() == np.concatenate(parts).tobytes()

    @pytest.mark.parametrize("domain,mesh", [c for c in BLOCK_DOMAINS
                                             if isinstance(c[0], Polyhedron3)],
                             ids=lambda v: repr(v)[:24])
    def test_vertices_are_probe_points(self, domain, mesh):
        # the face lattices hold every vertex bit for bit, so the walk's L is
        # the same as with a piece of the vertices alone
        points = {p.tobytes() for p in build_probe_net(domain, mesh).points}
        assert all(v.tobytes() in points for v in domain.vertices)

    @pytest.mark.parametrize("domain,mesh", [c for c in BLOCK_DOMAINS
                                             if not isinstance(c[0], Cantor)],
                             ids=lambda v: repr(v)[:24])
    @pytest.mark.parametrize("scale", [1.0, 0.1, 0.01, 20.0])
    def test_axis_points_bound_the_build(self, domain, mesh, scale):
        # the gate's count of a net's axis coordinates, from a coarse build:
        # at least the build's, and within 1.5x + 4 per axis of it; on an
        # exact-path domain there is no build, and no count either
        mesh = min(mesh * scale, domain.diameter * 0.9)
        if has_exact_path(domain):
            for build in (build_probe_net, axis_points):
                with pytest.raises(UnsupportedDomainError):
                    build(domain, mesh)
            return
        axes = [len(a) for p in build_probe_net(domain, mesh).pieces for a in p.axes]
        assert sum(axes) <= axis_points(domain, mesh) <= 1.5 * sum(axes) + 4 * len(axes)

    def test_cantor_mesh_snaps_to_power_of_three(self):
        net = cantor_net(Cantor(20), 0.01)
        k = round(-math.log(net.certified_mesh) / math.log(3.0))
        assert net.certified_mesh == pytest.approx(3.0**-k)

    @pytest.mark.parametrize("name", sorted(NAMED_DOMAINS))
    def test_nets_exactly_where_no_exact_path(self, name):
        # studies take the interval, arcsine interval, circle and Cantor set on
        # the exact path, so neither the build nor the budget gate's count of
        # its axes takes them; every other domain builds
        domain = NAMED_DOMAINS[name]
        mesh = domain.diameter / 10.0
        for build in (build_probe_net, axis_points):
            if has_exact_path(domain):
                with pytest.raises(UnsupportedDomainError):
                    build(domain, mesh)
            else:
                build(domain, mesh)

    # a two-vertex polyline: one segment, as the interval's net was
    SEGMENT = Polyline([[0.0], [1.0]])

    def test_invalid_mesh(self):
        with pytest.raises(ValueError, match="finite and positive"):
            build_probe_net(self.SEGMENT, 0.0)
        with pytest.raises(ValueError, match="below the domain diameter"):
            build_probe_net(self.SEGMENT, 2.0)
        # True once made a net whose certified_mesh was True; nan failed in the axes
        for mesh in (True, math.nan):
            with pytest.raises(ValueError, match="target mesh"):
                build_probe_net(Cube(2), mesh)

    def test_probe_net_validation(self):
        with pytest.raises(ValueError, match="certified mesh must be positive"):
            ProbeNet(self.SEGMENT, build_probe_net(self.SEGMENT, 0.1).pieces, 0.0)


class TestBlocks:
    @pytest.mark.parametrize("domain,mesh", BLOCK_DOMAINS, ids=lambda v: repr(v)[:24])
    def test_blocks_hold_every_probe_point(self, domain, mesh):
        # blocks the top level leaves out, or refinement drops, hold no probe point
        rows = lambda a: a[np.lexsort(a.T[::-1])]
        for net in own_and_deeper(probe_net(domain, mesh)):
            held = np.concatenate([
                pts[kept] for piece, side, top in zip(net.pieces, net.sides, net.tops)
                for _, _, pts, kept in [grid_points(piece, side,
                                                    refine(piece, side, top, net.depth)[-1])]])
            assert np.array_equal(rows(held), rows(np.array(net.points)))

    @pytest.mark.parametrize("domain,mesh", BLOCK_DOMAINS, ids=lambda v: repr(v)[:24])
    def test_reach_covers_every_grid_point(self, domain, mesh):
        # on every level, each grid point's image lies within its block's reach
        # of the block's representative, masked or not, in every copy
        for net in own_and_deeper(probe_net(domain, mesh)):
            for piece, side, top in zip(net.pieces, net.sides, net.tops):
                levels = refine(piece, side, top, net.depth)
                idx, copy, pts, _ = grid_points(piece, side, levels[-1])
                for j, level in zip(range(net.depth, -1, -1), levels):
                    size = side << j
                    counts = (piece.copies, *-(-np.array(piece.shape) // size))
                    block = np.full(math.prod(counts), -1)
                    block[np.ravel_multi_index((level.copy, *(level.first // size).T),
                                               counts)] = np.arange(len(level.first))
                    block = block[np.ravel_multi_index((copy, *(idx // size).T), counts)]
                    assert (block >= 0).all()
                    gap = np.linalg.norm(pts - level.reps[block], axis=1)
                    assert (gap <= level.reach[block]).all()

    @pytest.mark.parametrize("domain,mesh", BLOCK_DOMAINS, ids=lambda v: repr(v)[:24])
    def test_blocks_stay_in_one_copy_in_copy_order(self, domain, mesh):
        # the top level holds blocks of every copy; each child lies in its
        # parent's copy, so a block never spans two copies; and copy never falls
        # along a level, which the faces' runs in fmap rely on
        for net in own_and_deeper(probe_net(domain, mesh)):
            for piece, side, top in zip(net.pieces, net.sides, net.tops):
                levels = refine(piece, side, top, net.depth)
                assert np.array_equal(np.unique(top.copy), np.arange(piece.copies))
                for j, level, parents in zip(range(net.depth, -1, -1), levels,
                                             [None, *levels]):
                    assert level.copy.shape == (len(level.first),)
                    assert (np.diff(level.copy) >= 0).all()
                    if parents is not None:
                        up = level.first // (2 * side << j) * (2 * side << j)
                        known = {(c, *f) for c, f in zip(parents.copy.tolist(),
                                                         parents.first.tolist())}
                        assert all((c, *f) in known for c, f in zip(level.copy.tolist(),
                                                                    up.tolist()))

    def test_build_is_bounded_by_the_top_level(self):
        # 1.58e9 grid points in 4.66M finest blocks: the build allocates and
        # stores the top level's blocks only, at most 2048 of them
        tracemalloc.start()
        try:
            net = build_probe_net(Cube(3), probe_mesh_for(Cube(3), 10**6, 0.05))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (piece,), (side,), (top,) = net.pieces, net.sides, net.tops
        assert math.prod(piece.shape) > 1.5e9
        assert math.prod(-(-np.array(piece.shape) // side)) > 4.6e6
        assert all(len(a) <= 2048 for a in top if a is not None)
        assert peak < 1e6

    def test_build_is_bounded_with_many_pieces(self):
        # 1.28e10 grid points over 13 pieces, all cut at the depth the finest
        # piece needs: each top holds at most 2048 blocks (2645 in all), and the
        # build peaked at 1.18 MB
        tracemalloc.start()
        try:
            domain = unit_box_polyhedron()
            net = build_probe_net(domain, probe_mesh_for(domain, 10**6, 0.05))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(net.pieces) == 13
        assert sum(math.prod(p.shape) for p in net.pieces) > 1.2e10
        assert all(len(top.first) <= 2048 for top in net.tops)
        assert peak < 2e6


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

    def test_nearest_rows(self):
        # the rows nearest returns hold points at the returned distances, to
        # within the 1e-12 the walk allows for rounding
        rng = np.random.default_rng(9)
        pts, queries = rng.random((500, 3)), rng.random((300, 3))
        idx = build_index(pts)
        d, rows = idx.nearest(queries)
        assert np.array_equal(d, idx.nearest_distances(queries))
        assert np.array_equal(idx.points, pts) and not idx.points.flags.writeable
        assert np.allclose(d, np.linalg.norm(queries - idx.points[rows], axis=1),
                           rtol=1e-12, atol=0)

    def test_query_rows(self):
        # every new index starts with no queries, then records each batch's
        # rows in call order, from nearest and nearest_distances alike (a
        # batch of _THREADS_FROM rows or more is queried on several threads)
        rng = np.random.default_rng(10)
        pts = rng.random((200, 2))
        idx, other = build_index(pts), build_index(pts)
        assert idx.query_rows == [] and other.query_rows == []
        idx.nearest(rng.random((3, 2)))
        idx.nearest_distances([[0.5, 0.5]])
        idx.nearest_distances(rng.random((5000, 2)))
        idx.nearest(np.empty((0, 2)))
        assert idx.query_rows == [3, 1, 5000, 0]
        assert other.query_rows == []

    def test_empty_points(self):
        with pytest.raises(ValueError):
            build_index(np.empty((0, 2)))
